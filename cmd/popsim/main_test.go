package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// buildPopsim compiles this command into a temporary directory, so the
// tests below drive the binary exactly as a user does.
func buildPopsim(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "popsim")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// runPopsim runs the binary and returns its stdout, stderr and exit code.
func runPopsim(t *testing.T, bin string, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	var out, errb bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil {
		var exit *exec.ExitError
		if !errors.As(err, &exit) {
			t.Fatalf("popsim %v: %v", args, err)
		}
		code = exit.ExitCode()
	}
	return out.String(), errb.String(), code
}

// TestOutputPinned pins popsim's stdout, stderr and exit code for the
// summary mode (README's majority run, every framework program in text and
// -json, a run that ignores inapplicable flags, an unconverged run, each
// validation failure) and for -ndjson's per-protocol flag forwarding. The
// expected bytes were recorded from the binary as it stood before the
// protocol catalogue took over both paths, and must never be regenerated
// to make a change pass.
func TestOutputPinned(t *testing.T) {
	bin := buildPopsim(t)
	cases := []struct {
		args           []string
		stdout, stderr string
		code           int
	}{
		{[]string{"-p", "majority", "-n", "4096", "-gap", "1"}, "protocol=Majority n=4096 seed=1\niterations=3 rounds=3893 (56.3 × ln²n) converged=true\nYA=4096 (on means A is the majority)\n", "", 0},
		{[]string{"-p", "leader", "-n", "300", "-seed", "5"}, "protocol=LeaderElection n=300 seed=5\niterations=9 rounds=513 (15.8 × ln²n) converged=true\nleaders=1\n", "", 0},
		{[]string{"-p", "leader", "-n", "300", "-seed", "5", "-json"}, "{\"protocol\":\"leader\",\"n\":300,\"seed\":5,\"compiled\":false,\"iterations\":9,\"rounds\":513.3404227190586,\"converged\":true,\"counts\":{\"L\":1}}\n", "", 0},
		{[]string{"-p", "leaderexact", "-n", "300", "-seed", "5"}, "protocol=LeaderElectionExact n=300 seed=5\niterations=23 rounds=1049 (32.3 × ln²n) converged=true\nleaders=1\n", "", 0},
		{[]string{"-p", "leaderexact", "-n", "300", "-seed", "5", "-json"}, "{\"protocol\":\"leaderexact\",\"n\":300,\"seed\":5,\"compiled\":false,\"iterations\":23,\"rounds\":1049.4959753367398,\"converged\":true,\"counts\":{\"L\":1}}\n", "", 0},
		{[]string{"-p", "majority", "-n", "300", "-seed", "5", "-gap", "4"}, "protocol=Majority n=300 seed=5\niterations=3 rounds=1985 (61.0 × ln²n) converged=true\nYA=300 (on means A is the majority)\n", "", 0},
		{[]string{"-p", "majority", "-n", "300", "-seed", "5", "-gap", "4", "-json"}, "{\"protocol\":\"majority\",\"n\":300,\"seed\":5,\"compiled\":false,\"iterations\":3,\"rounds\":1984.9163011803582,\"converged\":true,\"counts\":{\"YA\":300}}\n", "", 0},
		{[]string{"-p", "majorityexact", "-n", "300", "-seed", "5", "-gap", "2"}, "protocol=MajorityExact n=300 seed=5\niterations=3 rounds=1985 (61.0 × ln²n) converged=true\nYA=300 (on means A is the majority)\n", "", 0},
		{[]string{"-p", "majorityexact", "-n", "300", "-seed", "5", "-gap", "2", "-json"}, "{\"protocol\":\"majorityexact\",\"n\":300,\"seed\":5,\"compiled\":false,\"iterations\":3,\"rounds\":1984.9163011803582,\"converged\":true,\"counts\":{\"YA\":300}}\n", "", 0},
		{[]string{"-p", "plurality", "-n", "300", "-seed", "5"}, "protocol=Plurality3 n=300 seed=5\niterations=1 rounds=2373 (72.9 × ln²n) converged=true\nW1=300 W2=0 W3=0 \n", "", 0},
		{[]string{"-p", "plurality", "-n", "300", "-seed", "5", "-colours", "4", "-json"}, "{\"protocol\":\"plurality\",\"n\":300,\"seed\":5,\"compiled\":false,\"iterations\":1,\"rounds\":4448.950330231849,\"converged\":true,\"counts\":{\"W1\":300,\"W2\":0,\"W3\":0,\"W4\":0}}\n", "", 0},
		{[]string{"-p", "leader", "-n", "300", "-seed", "5", "-max-iters", "1"}, "protocol=LeaderElection n=300 seed=5\niterations=1 rounds=57 (1.8 × ln²n) converged=false\nleaders=147\n", "", 1},
		{[]string{"-p", "leader", "-n", "300", "-seed", "5", "-gap", "7", "-colours", "9"}, "protocol=LeaderElection n=300 seed=5\niterations=9 rounds=513 (15.8 × ln²n) converged=true\nleaders=1\n", "", 0},
		{[]string{"-p", "nosuch"}, "", "popsim: unknown protocol \"nosuch\" (want leader | leaderexact | majority | majorityexact | plurality)\n", 2},
		{[]string{"-p", "coalescence"}, "", "popsim: unknown protocol \"coalescence\" (want leader | leaderexact | majority | majorityexact | plurality)\n", 2},
		{[]string{"-n", "1"}, "", "popsim: -n must be ≥ 2 (got 1)\n", 2},
		{[]string{"-max-iters", "0"}, "", "popsim: -max-iters must be ≥ 1 (got 0)\n", 2},
		{[]string{"-p", "majority", "-n", "4096", "-gap", "5000"}, "", "popsim: -gap must be in [0, n] (got 5000 with n=4096)\n", 2},
		{[]string{"-p", "plurality", "-colours", "1"}, "", "popsim: -colours must be ≥ 2 (got 1)\n", 2},
		{[]string{"-p", "plurality", "-n", "10", "-colours", "4"}, "", "popsim: -n too small for 4 colours (need at least 20 agents)\n", 2},
		{[]string{"-p", "majority", "-compiled"}, "", "popsim: -compiled supports only -p leader (got \"majority\"); the other protocols compile but are too slow to demonstrate here\n", 2},
		{[]string{"-replicas", "2"}, "", "popsim: -replicas needs -ndjson (per-replica output has no single-summary form)\n", 2},
		{[]string{"-p", "leader", "-n", "300", "-seed", "5", "-replicas", "2", "-ndjson"}, "{\"replica\":0,\"protocol\":\"leader\",\"n\":300,\"seed\":8494034262540313863,\"iterations\":7,\"rounds\":399.2647732259344,\"converged\":true,\"counts\":{\"L\":1}}\n{\"replica\":1,\"protocol\":\"leader\",\"n\":300,\"seed\":12250079603634017861,\"iterations\":8,\"rounds\":456.30259797249647,\"converged\":true,\"counts\":{\"L\":1}}\n", "", 0},
		{[]string{"-p", "majority", "-n", "300", "-seed", "5", "-ndjson"}, "{\"replica\":0,\"protocol\":\"majority\",\"n\":300,\"seed\":8494034262540313863,\"iterations\":3,\"rounds\":1984.9163011803582,\"converged\":true,\"counts\":{\"YA\":300}}\n", "", 0},
		{[]string{"-p", "plurality", "-n", "300", "-seed", "5", "-ndjson"}, "{\"replica\":0,\"protocol\":\"plurality\",\"n\":300,\"seed\":8494034262540313863,\"iterations\":1,\"rounds\":2372.77350945698,\"converged\":true,\"counts\":{\"W1\":300,\"W2\":0,\"W3\":0}}\n", "", 0},
		{[]string{"-p", "coalescence", "-n", "500", "-seed", "5", "-ndjson"}, "{\"replica\":0,\"protocol\":\"coalescence\",\"n\":500,\"seed\":8494034262540313863,\"rounds\":335.908,\"interactions\":167954,\"converged\":true,\"runner\":\"dense\",\"runner_reason\":\"n=500 below counted crossover 1024\",\"counts\":{\"L\":1}}\n", "", 0},
		{[]string{"-p", "gs18leader", "-n", "256", "-seed", "2", "-ndjson"}, "{\"replica\":0,\"protocol\":\"gs18leader\",\"n\":256,\"seed\":9129019643514423234,\"rounds\":3854.640625,\"interactions\":986788,\"converged\":true,\"runner\":\"dense\",\"runner_reason\":\"state-rich protocol: species grow with n, counted kernels gain nothing\",\"counts\":{\"L\":1}}\n", "", 0},
		{[]string{"-p", "leader", "-n", "300", "-gap", "3", "-ndjson"}, "", "popsim: gap does not apply to \"leader\"\n", 2},
		{[]string{"-p", "exactmajority", "-n", "500", "-seed", "4", "-max-iters", "5", "-ndjson"}, "", "popsim: max_iters applies to framework protocols only; use max_rounds for \"exactmajority\"\n", 2},
		{[]string{"-p", "nosuch", "-ndjson"}, "", "popsim: unknown protocol \"nosuch\" (known: [aagmajority approxmajority coalescence exactmajority gs18leader gsexactmajority leader leaderexact majority majorityexact plurality])\n", 2},
	}
	for _, tc := range cases {
		stdout, stderr, code := runPopsim(t, bin, tc.args...)
		if stdout != tc.stdout || stderr != tc.stderr || code != tc.code {
			t.Errorf("popsim %v:\nstdout %q\nstderr %q\nexit %d\nwant\nstdout %q\nstderr %q\nexit %d",
				tc.args, stdout, stderr, code, tc.stdout, tc.stderr, tc.code)
		}
	}
}

// TestTraceFilePinned pins a traced -json summary run: its stdout and the
// timeline file's bytes, recorded like TestOutputPinned's.
func TestTraceFilePinned(t *testing.T) {
	bin := buildPopsim(t)
	path := filepath.Join(t.TempDir(), "run.trace")
	stdout, stderr, code := runPopsim(t, bin, "-p", "leader", "-n", "256", "-seed", "3", "-json", "-trace", path)
	const wantStdout = `{"protocol":"leader","n":256,"seed":3,"compiled":false,"iterations":6,"rounds":332.71064666877356,"converged":true,"counts":{"L":1}}
`
	if stdout != wantStdout || stderr != "" || code != 0 {
		t.Fatalf("stdout %q, stderr %q, exit %d; want %q, \"\", 0", stdout, stderr, code, wantStdout)
	}
	const wantTrace = `{"kind":"iteration","iter":1,"leaf":10,"rounds":55.451774444795625,"value":0}
{"kind":"iteration","iter":2,"leaf":20,"rounds":110.90354888959125,"value":0}
{"kind":"iteration","iter":3,"leaf":30,"rounds":166.35532333438687,"value":0}
{"kind":"iteration","iter":4,"leaf":40,"rounds":221.8070977791825,"value":0}
{"kind":"iteration","iter":5,"leaf":50,"rounds":277.2588722239781,"value":0}
{"kind":"iteration","iter":6,"leaf":60,"rounds":332.71064666877356,"value":0}
`
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != wantTrace {
		t.Errorf("timeline:\n%s\nwant\n%s", got, wantTrace)
	}
}
