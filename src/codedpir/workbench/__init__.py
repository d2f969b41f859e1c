from .codefile import (
    CodeFile,
    CodeFileError,
    fixture_path,
    format_e_matrix,
    parse_code_file,
    parse_code_text,
    parse_e_matrix_text,
)

__all__ = [
    "CodeFile",
    "CodeFileError",
    "fixture_path",
    "format_e_matrix",
    "parse_code_file",
    "parse_code_text",
    "parse_e_matrix_text",
]
