from .codefile import (
    CodeFile,
    CodeFileError,
    fixture_path,
    format_e_matrix,
    parse_code_file,
    parse_code_text,
    parse_e_matrix_text,
    serialize_code,
)


def main(argv=None) -> int:
    """The CLI entry point (see `cli.main`).

    `cli` is imported on call, so `python -m codedpir.workbench.cli` finds
    it absent from sys.modules when it runs the module.
    """
    from .cli import main as cli_main

    return cli_main(argv)


__all__ = [
    "CodeFile",
    "CodeFileError",
    "fixture_path",
    "format_e_matrix",
    "main",
    "parse_code_file",
    "parse_code_text",
    "parse_e_matrix_text",
    "serialize_code",
]
