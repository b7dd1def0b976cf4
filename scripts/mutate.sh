#!/usr/bin/env bash
# Mutant suite: each testdata/mutants/<name>.patch is a deliberate bug the
# tests must catch.
#
#   scripts/mutate.sh [name ...]
#
# The tracked and untracked (not ignored) files of the working tree are
# copied into a scratch directory (mktemp -d, honours TMPDIR), the way
# scripts/ab.sh unpacks a ref, and each mutant is applied there, tested and
# reverted. A patch names its killer in header lines ahead of the diff:
#
#   pkg: ./internal/transport            package to test
#   run: TestRoCEWireTrace|FuzzRecovery  go test -run pattern
#   equivalent: <reason>                 optional: no test can tell it apart
#
# A mutant is killed when a test under the -run pattern fails; one that
# does not build proves nothing and counts as bad. The script prints a
# line per mutant and exits 1 if one survives that is not marked
# equivalent, or if a patch is bad. With names, only those mutants run.
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."
repo=$PWD
if [ $# -gt 0 ]; then
	patches=()
	for n in "$@"; do patches+=("testdata/mutants/$n.patch"); done
else
	patches=(testdata/mutants/*.patch)
fi

dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
# Files deleted in the working tree but still in the index stay out.
git ls-files -z -co --exclude-standard |
	while IFS= read -r -d '' f; do [ -e "$f" ] && printf '%s\0' "$f"; done |
	tar --null -T - -c | tar -x -C "$dir"

header() { sed -n "s/^$1: //p;/^diff --git/q" "$2" | head -n 1; }

killed=0 survived=0 equivalent=0 bad=0
for p in "${patches[@]}"; do
	name=$(basename "$p" .patch)
	pkg=$(header pkg "$p") run=$(header run "$p") equiv=$(header equivalent "$p")
	if [ -z "$pkg" ] || [ -z "$run" ]; then
		echo "BAD       $name: header needs pkg: and run: lines"
		bad=$((bad + 1))
		continue
	fi
	if ! (cd "$dir" && git apply "$repo/$p" 2>/dev/null); then
		echo "BAD       $name: does not apply"
		bad=$((bad + 1))
		continue
	fi
	start=$(date +%s)
	if (cd "$dir" && go test -count=1 -run "$run" $pkg >"$dir/.out" 2>&1); then
		if [ -n "$equiv" ]; then
			echo "EQUIV     $name ($pkg -run '$run', $(($(date +%s) - start)) s): $equiv"
			equivalent=$((equivalent + 1))
		else
			echo "SURVIVED  $name ($pkg -run '$run', $(($(date +%s) - start)) s)"
			survived=$((survived + 1))
		fi
	elif grep -q -E '\[(build|setup) failed\]' "$dir/.out"; then
		echo "BAD       $name: does not build"
		bad=$((bad + 1))
	else
		why=$(grep -m 1 -E -e '--- FAIL|panic:' "$dir/.out" || true)
		echo "killed    $name ($pkg -run '$run', $(($(date +%s) - start)) s): ${why## }"
		killed=$((killed + 1))
		[ -n "$equiv" ] && echo "  note: $name is marked equivalent but was killed"
	fi
	(cd "$dir" && git apply -R "$repo/$p")
done
echo "mutants: $killed killed, $survived survived, $equivalent equivalent, $bad bad"
[ "$survived" -eq 0 ] && [ "$bad" -eq 0 ]
