# Server boot helpers shared by the smoke scripts. Source it from the
# repository root, after `set -euo pipefail`. It makes $tmp, a scratch
# directory that is removed on exit, after every background job still
# running (servers, clients) is sent SIGTERM and waited for, and defines:
#
#   start LOG CMD...  runs CMD in the background with its stderr in LOG,
#                     waits for the "listening on URL" line it announces,
#                     and sets $base to URL and $last_pid to its PID
#   stop              sends $last_pid SIGTERM, waits for it and returns its
#                     exit status

tmp=$(mktemp -d)
trap 'kill $(jobs -p) 2>/dev/null || true; wait 2>/dev/null || true; rm -rf "$tmp"' EXIT

start() {
    local log=$1; shift
    # Create the log before the port poll below can read it.
    : > "$log"
    "$@" 2> "$log" &
    last_pid=$!
    base=""
    for _ in $(seq 1 200); do
        base=$(sed -n 's#.*listening on \(http://[^ ]*\).*#\1#p' "$log" | head -n 1)
        [ -n "$base" ] && break
        sleep 0.05
    done
    [ -n "$base" ] || {
        echo "$(basename "$0" .sh): $(basename "$1") did not announce its port" >&2
        cat "$log" >&2
        exit 1
    }
}

stop() {
    kill -TERM "$last_pid" 2>/dev/null || true
    wait "$last_pid"
}
