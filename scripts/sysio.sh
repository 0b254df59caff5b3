#!/usr/bin/env bash
# Two-process syscall witness: runs the benchmark (bash bench/run.sh with
# this script's arguments), samples /proc/<pid>/io of the load generator
# (nsload) and of the name server it started (nsd) every half second, and
# prints, per process, the median read and write syscalls per second over
# the samples. The benchmark's own output is printed first, unchanged.
#
#   bash scripts/sysio.sh --workload pipelined-uniform --trace 0
#
# An interval counts only when the same nsd was running at both ends of
# it, so nsd restarts and the load generator's build step drop out. The
# medians cover every stretch a server ran, set-up included; at the
# benchmark's 24 measured seconds the measured window is most of the
# samples. The generator's counts include everything it runs beside the
# workload, such as the reference echo.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
samples=$(mktemp)
trap 'rm -f "$samples"' EXIT

bash "$root/bench/run.sh" "$@" &
gen=$! # run.sh execs the generator, so this pid becomes nsload's

# io_counts PID prints "syscr syscw", or nothing once PID is gone.
io_counts() {
	awk '/^syscr:/ { r = $2 } /^syscw:/ { w = $2 } END { if (r != "") print r, w }' \
		"/proc/$1/io" 2>/dev/null || true
}

# nsd_pid prints the pid of the generator's nsd child, if one is running.
nsd_pid() {
	local stat
	for stat in /proc/[0-9]*/stat; do
		# comm is field 2 in parentheses, ppid field 4.
		read -r pid comm _ ppid _ <"$stat" 2>/dev/null || continue
		if [ "$comm" = "(nsd)" ] && [ "$ppid" = "$gen" ]; then
			echo "$pid"
			return
		fi
	done
}

declare -A last
while kill -0 "$gen" 2>/dev/null; do
	now=$(date +%s.%N)
	srv=$(nsd_pid)
	if [ -z "$srv" ]; then
		# No server: the build, or between runs. Sample neither side, so
		# the generator's medians cover the same stretches as the server's.
		last=()
		sleep 0.5
		continue
	fi
	for proc in nsload nsd; do
		if [ "$proc" = nsload ]; then pid=$gen; else pid=$srv; fi
		counts=$(io_counts "$pid")
		[ -n "$counts" ] || continue
		read -r r w <<<"$counts"
		if [ -n "${last[$proc]:-}" ]; then
			read -r lpid lt lr lw <<<"${last[$proc]}"
			if [ "$lpid" = "$pid" ]; then
				echo "$proc $now $lt $r $lr $w $lw" >>"$samples"
			fi
		fi
		last[$proc]="$pid $now $r $w"
	done
	sleep 0.5
done
wait "$gen"

# median prints the middle of the numbers on stdin, one a line.
median() { sort -g | awk '{ v[NR] = $1 } END { if (NR) print v[int((NR + 1) / 2)] }'; }

for proc in nsload nsd; do
	rates=$(awk -v p="$proc" '$1 == p && $2 > $3 { dt = $2 - $3; print ($4 - $5) / dt, ($6 - $7) / dt }' "$samples")
	if [ -z "$rates" ]; then
		echo "sysio: $proc: no samples"
		continue
	fi
	printf 'sysio: %-6s read_syscalls_per_s %.0f  write_syscalls_per_s %.0f  (%d samples)\n' "$proc" \
		"$(cut -d' ' -f1 <<<"$rates" | median)" "$(cut -d' ' -f2 <<<"$rates" | median)" "$(wc -l <<<"$rates")"
done
