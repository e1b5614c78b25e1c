#!/usr/bin/env bash
# Prints the size of the library source: non-blank lines that are not
# `//` comments, over src/**/*.{hpp,cpp}.  Design-quality changes report
# this figure before and after, next to `git diff --shortstat -- src`.
#
# Usage: scripts/src_lines.sh [repo-root]   (default: this script's repo)
set -euo pipefail

ROOT="${1:-$(cd "$(dirname "$0")/.." && pwd)}"
find "$ROOT/src" -type f \( -name '*.hpp' -o -name '*.cpp' \) -print0 |
  xargs -0 cat |
  grep -Ev '^[[:space:]]*(//.*)?$' |
  wc -l
