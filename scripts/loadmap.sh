#!/usr/bin/env bash
# The load-bearing map: which code do the shipped binaries execute, which
# do only unit tests reach, and which does nothing run at all.
#
#   bash scripts/loadmap.sh            # rewrites LOADMAP.md (about 3 minutes)
#
# Offline, one command, nothing under bench/ touched. It builds every cmd/
# and examples/ binary with -cover -coverpkg=./..., drives them and the
# nsload smoke into one GOCOVERDIR, runs the unit tests with
# -coverpkg=./..., and classes every function (a) executed by a shipped
# binary, (b) by unit tests only, (c) by nothing. scripts/loadmap.keep
# gives the one reason each class-(b) function is kept. Exit status: 1 if
# class (c) is non-empty outside internal/analysis, a class-(b) function
# has no reason on file (the report is written either way), or — before
# anything runs — the keep list gives roadmap-5 as a reason.
#
# LOADMAP_DIR (default ./loadmap.out, git-ignored) receives the binaries,
# the raw counters, shipped.cov / tests.cov / merged.cov and the logs.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
work=${LOADMAP_DIR:-$root/loadmap.out}
bin=$work/bin
cov=$work/cov
logs=$work/logs
rm -rf "$work"
mkdir -p "$bin" "$cov" "$logs" "$work/data1" "$work/data2" "$work/data3"
export GOTOOLCHAIN=local

say() { echo "loadmap: $*" >&2; }

# roadmap-5 deferred to a deletion pass that has run: it is no reason now.
if awk -F'\t' '$2 == "roadmap-5"' scripts/loadmap.keep | grep .; then
	say "scripts/loadmap.keep: roadmap-5 is not a keep reason (delete the function or give the real one)"
	exit 1
fi

# ---- 1. shipped binaries, instrumented for every package of the module ----
say "building cmd/ and examples/ with -cover"
go build -cover -coverpkg=./... -o "$bin/" ./cmd/... ./examples/...
export GOCOVERDIR=$cov

nsd_pid=
nsd_log=
# start_nsd NAME ARGS...: start a daemon, wait for the banner line that
# means it is accepting (the one bench/nsload/proc.go waits for).
start_nsd() {
	nsd_log=$logs/nsd-$1.log
	shift
	"$bin/nsd" "$@" >"$nsd_log" 2>&1 &
	nsd_pid=$!
	for _ in $(seq 100); do
		if grep -q -e 'nsd serving on' -e '^bootstrap:' "$nsd_log"; then return 0; fi
		sleep 0.1
	done
	say "nsd $* did not come up:"
	cat "$nsd_log" >&2
	return 1
}
# stop_nsd: SIGTERM is a clean exit, so the counters are written.
stop_nsd() {
	kill -TERM "$nsd_pid"
	wait "$nsd_pid" || true
	nsd_pid=
}
trap '[ -n "$nsd_pid" ] && kill -TERM "$nsd_pid" 2>/dev/null || true' EXIT
lone_addr() { sed -n 's/^nsd serving on \([^ ]*\) .*/\1/p' "$nsd_log"; }
member_addr() { sed -n 's/^bootstrap: nsq -cluster -addr \([^ ]*\) .*/\1/p' "$nsd_log"; }
# may_fail CMD...: a run whose refusal is the point.
may_fail() { "$@" || true; }

say "driving cohbench, namingsim, pqidemo, benchjson and the examples"
{
	"$bin/cohbench"
	"$bin/cohbench" -list
	"$bin/cohbench" -only E7
	may_fail "$bin/cohbench" -only E99
	"$bin/namingsim" -scheme newcastle -machines 3 -check -dump -dot /etc/passwd /../unix2/etc/passwd /no/such
	"$bin/namingsim" -scheme newcastle -from unix2 /etc/passwd
	"$bin/namingsim" -scheme andrew -clients 2 -check -dump -dot /vice/usr/shared /home/ws1/notes
	"$bin/nsd" -dump >"$work/demo.spec"
	"$bin/namingsim" -scheme spec -specfile "$work/demo.spec" -check -dump -dot /usr/bin/ls /mnt/bin/cat /nope
	may_fail "$bin/namingsim" -scheme spec
	may_fail "$bin/namingsim" -scheme nonesuch
	"$bin/pqidemo"
	for ex in andrew document federation nameservice newcastle plan9 quickstart replicated; do
		"$bin/$ex"
	done
	go test -run '^$' -bench BenchmarkCoreResolve -benchtime 100x -benchmem -count 2 ./internal/core >"$work/bench.txt"
	"$bin/benchjson" <"$work/bench.txt" >"$work/bench.json"
	"$bin/benchjson" -compare "$work/bench.json" "$work/bench.json" -max-regress 50
} >"$logs/tables.log" 2>&1

say "driving nsd and nsq by hand (what the smoke does not)"
{
	# 1x1, writable, durable: reads, cached reads, every write verb, push.
	start_nsd lone -addr 127.0.0.1:0 -data "$work/data1" -snap-interval 200ms
	a=$(lone_addr)
	"$bin/nsq" -addr "$a" /usr/bin/ls /etc/motd /mnt/bin/cat
	may_fail "$bin/nsq" -addr "$a" /no/such/name
	"$bin/nsq" -addr "$a" -cache 16 -n 3 /usr/bin/ls /etc/motd
	# -cluster still parses (nsd's bootstrap line and nsload pass it) and
	# changes nothing.
	"$bin/nsq" -cluster -addr "$a" -cache 16 -n 3 /usr/bin/ls /etc/motd
	"$bin/nsq" -addr "$a" -timeout 0 /usr/bin/ls
	"$bin/nsq" -addr "$a" -push -cache 16 -n 200000 /usr/bin/ls >"$logs/push-reader.log" 2>&1 &
	reader=$!
	"$bin/nsq" -addr "$a" mkcontext /usr/local
	"$bin/nsq" -addr "$a" bind /usr/local/tool /usr/bin/ls
	"$bin/nsq" -addr "$a" /usr/local/tool
	"$bin/nsq" -addr "$a" unbind /usr/local/tool
	may_fail "$bin/nsq" -addr "$a" bind /no/such/dir/x /usr/bin/ls
	"$bin/nsq" -addr "$a" -batch -cache 16 -n 2 /usr/bin/ls /etc/passwd
	wait "$reader" || true
	sleep 0.3 # one periodic snapshot
	stop_nsd
	start_nsd lone-restart -addr 127.0.0.1:0 -data "$work/data1"
	"$bin/nsq" -addr "$(lone_addr)" /usr/local /usr/bin/ls
	stop_nsd

	# a spec file with an embedded name, durable: the file-node codec's
	# path encoding on the way out and, after the restart, on the way in.
	{
		cat "$work/demo.spec"
		echo 'file /home/alice/report "see the motd"'
		echo 'embed /home/alice/report "etc/motd"'
	} >"$work/embed.spec"
	start_nsd spec -addr 127.0.0.1:0 -spec "$work/embed.spec" -data "$work/data2"
	"$bin/nsq" -addr "$(lone_addr)" /home/alice/report
	stop_nsd
	start_nsd spec-restart -addr 127.0.0.1:0 -spec "$work/embed.spec" -data "$work/data2"
	"$bin/nsq" -addr "$(lone_addr)" /home/alice/report
	stop_nsd

	# read-only daemon: resolves, refuses every write verb.
	start_nsd readonly -addr 127.0.0.1:0 -readonly
	a=$(lone_addr)
	"$bin/nsq" -addr "$a" /usr/bin/ls
	may_fail "$bin/nsq" -addr "$a" mkcontext /usr/local
	may_fail "$bin/nsq" -addr "$a" bind /usr/bin/ls2 /usr/bin/ls
	may_fail "$bin/nsq" -addr "$a" unbind /usr/bin/ls
	stop_nsd

	# 3x2, durable: routed and batched reads, routed writes, push, then a
	# restart (recovery plus the replicas' catch-up path).
	start_nsd sharded -shard 3 -replicas 2 -data "$work/data3"
	a=$(member_addr)
	"$bin/nsq" -addr "$a" -batch -cache 16 -n 2 /usr/bin/ls /etc/passwd /home/alice/notes
	"$bin/nsq" -addr "$a" -cache 16 -n 2 -timeout 2s -retries 1 /usr/bin/ls /etc/passwd
	"$bin/nsq" -addr "$a" -push -cache 16 -n 3 /usr/bin/ls /mnt/bin/cat
	"$bin/nsq" -addr "$a" mkcontext /usr/local
	"$bin/nsq" -addr "$a" bind /usr/local/tool /usr/bin/ls
	"$bin/nsq" -addr "$a" bind /etc/motd2 /etc/motd
	"$bin/nsq" -addr "$a" unbind /etc/motd2
	may_fail "$bin/nsq" -addr "$a" /no/such/name
	may_fail "$bin/nsq" -addr "$a" -n 0 /usr/bin/ls
	stop_nsd
	start_nsd sharded-restart -shard 3 -replicas 2 -data "$work/data3"
	"$bin/nsq" -addr "$(member_addr)" /usr/local/tool /etc/passwd
	stop_nsd
	may_fail "$bin/nsd" -shard 0
	may_fail "$bin/nsq" -addr 127.0.0.1:1 -timeout 200ms /usr/bin/ls
} >"$logs/daemon.log" 2>&1

# Plain -cover here, NOT -coverpkg: nsload is then instrumented for
# namecoherence/bench only, so the ladder's in-process calls into the
# module (nameserver.WithCache, ...) are not counted as shipped, while the
# nsd and nsq it builds are instrumented for the root module.
say "nsload smoke: all four workloads, both modes (about 70 s)"
GOFLAGS=-cover bash bench/run.sh -smoke >"$logs/smoke.log" 2>&1
grep -o '"attempted":[0-9]*,"failed":[0-9]*' "$logs/smoke.log" | tr -c '0-9\n' ' ' |
	awk '{ a += $1; f += $2 } END { printf "%d runs, %.0f million operations, %d failed\n", NR, a / 1e6, f }' >"$work/smoke.ops"

say "namingvet over the module"
"$bin/namingvet" ./... >"$logs/namingvet.log" 2>&1
unset GOCOVERDIR

# covdata also holds namecoherence/bench/{nsload,echo}; `go tool cover`
# cannot find those from the root module, so they are dropped here.
go tool covdata textfmt -i="$cov" -o "$work/shipped.raw"
grep -v '^namecoherence/bench/' "$work/shipped.raw" >"$work/shipped.cov"

# ---- 2. what the unit tests reach ----
say "go test -short -coverpkg=./... (about 30 s)"
# A failing test is CI's test job's to report; its package's counters are
# in the profile all the same.
go test -short -count=1 -coverpkg=./... -coverprofile="$work/tests.cov" ./... >"$logs/tests.log" 2>&1 ||
	say "unit tests failed (see $logs/tests.log); the map uses what they reached"

{ echo "mode: set"; grep -h -v '^mode:' "$work/shipped.cov" "$work/tests.cov"; } >"$work/merged.cov"

# ---- 3. the report ----
go tool cover -func="$work/shipped.cov" >"$work/shipped.func"
go tool cover -func="$work/tests.cov" >"$work/tests.func"

# funcs.tsv: package, function id, class, file:line — one row per function
# that has statements. The id is dir.Func or dir.Recv.Method, the receiver
# read off the declaration line `go tool cover` points at.
awk -F'\t+' '
# decl sets dir, where and empty for the function at key (file:line) and
# returns the prefix of its id.
function decl(key,    parts, file, want, i, line, recv) {
	split(key, parts, ":")
	file = parts[1]; want = parts[2] + 0
	sub(/^namecoherence\//, "", file)
	if (!(file in nlines)) {
		i = 0
		while ((getline line < file) > 0) src[file, ++i] = line
		close(file)
		nlines[file] = i
	}
	line = src[file, want]
	dir = file; sub(/\/[^\/]*$/, "", dir)
	recv = ""
	if (line ~ /^func \(/) {
		recv = line
		sub(/^func \(([A-Za-z_0-9]+ )?\*?/, "", recv)
		sub(/[\[\)].*/, "", recv)
		recv = recv "."
	}
	# A body with no statement (marker methods) is in no class.
	empty = (line ~ /\{ *\}$/)
	if (!empty && line ~ /\{$/) {
		empty = 1
		for (i = want + 1; i <= nlines[file] && src[file, i] != "}"; i++)
			if (src[file, i] !~ /^[ \t]*(\/\/.*)?$/) { empty = 0; break }
	}
	where = file ":" want
	return dir "." recv
}
FNR == 1 { side++ }
$1 == "total:" { next }
{
	key = $1; sub(/:$/, "", key)
	name[key] = $2
	pct = $3; sub(/%/, "", pct)
	if (side == 1) shipped[key] = pct + 0; else tests[key] = pct + 0
}
END {
	for (key in name) {
		id = decl(key) name[key]
		if (empty) continue
		class = shipped[key] > 0 ? "a" : (tests[key] > 0 ? "b" : "c")
		print dir "\t" id "\t" class "\t" where
	}
}' "$work/shipped.func" "$work/tests.func" | sort >"$work/funcs.tsv"

# pkgs.tsv: package, statements, reached by shipped binaries, by tests.
awk '
FNR == 1 { side++ }
/^mode:/ { next }
{
	block = $1; stmts = $2; hit = $3 > 0
	if (!(block in seen)) {
		seen[block] = 1
		dir = block; sub(/^namecoherence\//, "", dir); sub(/\/[^\/]*$/, "", dir)
		of[block] = dir; total[dir] += stmts
	}
	if (hit && !((side, block) in done)) { done[side, block] = 1; reached[side, of[block]] += stmts }
}
END { for (dir in total) print dir "\t" total[dir] "\t" reached[1, dir] + 0 "\t" reached[2, dir] + 0 }
' "$work/shipped.cov" "$work/tests.cov" | sort >"$work/pkgs.tsv"

loc=$(find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' -not -path '*/testdata/*' | xargs cat | wc -l)
aloc=$(find internal/analysis cmd/namingvet -name '*.go' -not -name '*_test.go' -not -path '*/testdata/*' | xargs cat | wc -l)

# The analyzers are reported by count only: the namingvet lens is ROADMAP
# item 5's remaining half and nothing there is deleted by this map.
analysis='^(internal/analysis|cmd/namingvet)'
grep -Ev "$analysis" "$work/funcs.tsv" >"$work/funcs.main"
grep -E "$analysis" "$work/funcs.tsv" >"$work/funcs.vet"
{ grep -v -e '^#' -e '^$' scripts/loadmap.keep || true; } | sort >"$work/keep.tsv"
count() { awk -F'\t' -v c="$2" '$3 == c' "$1" | wc -l | tr -d ' '; }
sumcol() { grep -Ev "$analysis" "$work/pkgs.tsv" | awk -F'\t' -v c="$1" '{ s += $c } END { print s + 0 }'; }

# keep.joined: every class-(b) function with its reason ("" when none is
# on file); keep.stale: entries whose function is no longer in class (b).
awk -F'\t' 'FILENAME == ARGV[1] { why[$1] = $2 "\t" $3; next } $3 == "b" { print $1 "\t" $2 "\t" $4 "\t" why[$2] }' \
	"$work/keep.tsv" "$work/funcs.main" >"$work/keep.joined"
awk -F'\t' 'FILENAME == ARGV[1] { if ($3 == "b") b[$2] = 1; next } !($1 in b) { print $1 }' \
	"$work/funcs.main" "$work/keep.tsv" >"$work/keep.stale"
unexplained=$(awk -F'\t' '$4 == ""' "$work/keep.joined" | wc -l | tr -d ' ')
dead=$(count "$work/funcs.main" c)

{
	total=$(sumcol 2)
	echo "# LOADMAP — which code is load-bearing"
	echo
	echo "Written by \`bash scripts/loadmap.sh\`; do not edit by hand. Function classes:"
	echo "**(a)** executed by a shipped binary — \`cohbench\`, \`namingsim\`, \`pqidemo\`,"
	echo "\`benchjson\`, the eight \`examples/\`, \`nsd\` and \`nsq\` driven by hand (every flag"
	echo "and write verb, \`-data\` restarts, \`-readonly\`, 3×2 catch-up) and by"
	echo "\`GOFLAGS=-cover bash bench/run.sh -smoke\` (all four nsload workloads, both"
	echo "modes); **(b)** executed by \`go test -short ./...\` only; **(c)** by nothing."
	echo "Classes and the keep list are exact; statement counts move by a handful from"
	echo "run to run (timeout and retry branches that a loaded host takes or not)."
	echo
	echo "## Headline"
	echo
	echo "| | |"
	echo "|---|---|"
	echo "| non-test lines (CI's command) | $loc |"
	echo "| of which analyzers (\`internal/analysis\`, \`cmd/namingvet\`) | $aloc |"
	echo "| non-analyzer functions | $(wc -l <"$work/funcs.main" | tr -d ' ') |"
	echo "| (a) shipped binary | $(count "$work/funcs.main" a) |"
	echo "| (b) unit tests only | $(count "$work/funcs.main" b) |"
	echo "| (c) nothing | $dead |"
	echo "| non-analyzer statements reached by shipped binaries | $(sumcol 3) of $total ($(awk -v a="$(sumcol 3)" -v b="$total" 'BEGIN { printf "%.1f", 100 * a / b }')%) |"
	echo "| …by unit tests | $(sumcol 4) of $total ($(awk -v a="$(sumcol 4)" -v b="$total" 'BEGIN { printf "%.1f", 100 * a / b }')%) |"
	echo "| nsload smoke | $(cat "$work/smoke.ops") |"
	echo "| analyzer functions (a) / (b) / (c) | $(count "$work/funcs.vet" a) / $(count "$work/funcs.vet" b) / $(count "$work/funcs.vet" c) |"
	echo
	echo "## Per package"
	echo
	echo "| package | statements | shipped reach | tests reach | (a) | (b) | (c) |"
	echo "|---|---:|---:|---:|---:|---:|---:|"
	awk -F'\t' '
	FILENAME == ARGV[1] { n[$1, $3]++; next }
	{ printf "| `%s` | %d | %d (%.0f%%) | %d (%.0f%%) | %d | %d | %d |\n", $1, $2, $3, 100 * $3 / $2, $4, 100 * $4 / $2, n[$1, "a"], n[$1, "b"], n[$1, "c"] }
	' "$work/funcs.tsv" "$work/pkgs.tsv"
	echo
	echo "## Class (b): kept alive by unit tests only, and why each stays"
	echo
	echo "Reasons (\`scripts/loadmap.keep\`, exactly one per function): **bench** — frozen by"
	echo "\`bench/\`, which this module may not edit; **interface** — an interface obligation or"
	echo "an \`Error\`/\`String\` method; **fault** — an error, timeout or integrity path no"
	echo "healthy run takes; **reference** — what a test compares the shipped path against;"
	echo "**roadmap-N** — named by ROADMAP item N (1–4) as its input."
	echo
	echo "| function | at | reason | |"
	echo "|---|---|---|---|"
	awk -F'\t' '{ printf "| `%s` | %s | %s | %s |\n", $2, $3, ($4 == "" ? "**NONE ON FILE**" : $4), $5 }' "$work/keep.joined"
	echo
	echo "## Class (c): executed by nothing"
	echo
	if [ "$dead" -eq 0 ]; then
		echo "Empty outside the analyzers."
	else
		awk -F'\t' '$3 == "c" { printf "- `%s` (%s)\n", $2, $4 }' "$work/funcs.main"
	fi
	echo
	echo "Analyzers (reported, not acted on — ROADMAP item 5):"
	echo
	awk -F'\t' '$3 == "c" { printf "- `%s` (%s)\n", $2, $4 }' "$work/funcs.vet"
	if [ -s "$work/keep.stale" ]; then
		echo
		echo "## Stale keep entries (function gone or no longer class (b))"
		echo
		sed 's/.*/- `&`/' "$work/keep.stale"
	fi
} >LOADMAP.md

say "wrote LOADMAP.md: class (c) $dead, class (b) without a reason $unexplained, stale keep entries $(wc -l <"$work/keep.stale" | tr -d ' ')"
[ "$dead" -eq 0 ] && [ "$unexplained" -eq 0 ]
