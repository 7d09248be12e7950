#!/usr/bin/env bash
# The line ledger of ROADMAP item 1 (least code): every `.rs` line under
# crates/, tests/, examples/, compat/ and src/, split four ways.
#
#   test-module  from a file's first `#[cfg(test)]` line that the next
#                line opens a `mod` after, through to the end of the file
#   test-file    files under a `tests/` directory
#   example      files under an `examples/` directory
#   library      everything else
#
# Prints the counts; it checks nothing. Run from anywhere:
#   scripts/line_ledger.sh
set -euo pipefail
cd "$(dirname "$0")/.."
find crates tests examples compat src -name '*.rs' -print0 | sort -z |
  xargs -0 awk '
    FNR == 1 {
      kind = FILENAME ~ /(^|\/)tests\// ? "test-file" \
           : FILENAME ~ /(^|\/)examples\// ? "example" : "library"
      prev_cfg_test = 0
    }
    {
      if (kind == "library" && prev_cfg_test && $0 ~ /^[ \t]*mod /) {
        # The `#[cfg(test)]` line above was counted as library.
        count["library"]--
        count["test-module"]++
        kind = "test-module"
      }
      prev_cfg_test = $0 ~ /^[ \t]*#\[cfg\(test\)\][ \t]*$/
      count[kind]++
      total++
    }
    END {
      printf "library      %6d\n", count["library"]
      printf "test-module  %6d\n", count["test-module"]
      printf "test-file    %6d\n", count["test-file"]
      printf "example      %6d\n", count["example"]
      printf "total        %6d\n", total
    }'
