#!/bin/sh
# Rebuild the committed c7_array access matrix (beta = 60) with the CLI's
# width scan at seed 7. Run from the repository root.
set -e
PYTHONPATH=src python3 -c 'import sys; from codedpir.workbench.cli import main; sys.exit(main())' \
    optimize tests/fixtures/c7_array.pchk --seed 7 --out perfbench/data/c7_array_beta60.txt
