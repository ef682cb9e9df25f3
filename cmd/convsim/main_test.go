package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunMinimal(t *testing.T) {
	err := run([]string{"-protocol", "dbf", "-trials", "1", "-detail"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunLinkState(t *testing.T) {
	if err := run([]string{"-protocol", "ls", "-trials", "1", "-rate", "10"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestRunRejectsBadProtocol(t *testing.T) {
	if err := run([]string{"-protocol", "ospf"}, io.Discard); err == nil {
		t.Error("unknown protocol accepted")
	}
}

func TestRunRejectsBadDegree(t *testing.T) {
	if err := run([]string{"-degree", "2"}, io.Discard); err == nil {
		t.Error("degree 2 accepted")
	}
}

func TestRunMultiFlow(t *testing.T) {
	if err := run([]string{"-protocol", "dbf", "-trials", "1", "-flows", "2"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

// TestRunRejectsNonPositiveRateAndWindow: a zero rate once divided by zero
// and a negative window printed empty sections; both are flag errors now,
// and the error names the flag.
func TestRunRejectsNonPositiveRateAndWindow(t *testing.T) {
	for _, c := range []struct{ flag, value string }{
		{"-rate", "0"}, {"-rate", "-3"}, {"-window", "0s"}, {"-window", "-5s"},
	} {
		err := run([]string{"-trace", c.flag, c.value}, io.Discard)
		if err == nil || !strings.Contains(err.Error(), c.flag) {
			t.Errorf("run(%s %s) = %v, want an error naming %s", c.flag, c.value, err, c.flag)
		}
	}
}

// TestFlags gives every flag a value that parses and, where one exists, a
// command line that run must reject. A flag the table does not list fails
// the test.
func TestFlags(t *testing.T) {
	dir := t.TempDir()
	missing := filepath.Join(dir, "missing", "file")
	cases := []struct {
		name, good string
		bad        []string // nil: the flag has no invalid value
	}{
		{"rows", "5", []string{"-rows", "1"}},
		{"cols", "5", []string{"-cols", "x"}},
		{"degree", "6", []string{"-degree", "2"}},
		{"topo", "fattree:k=4", []string{"-topo", "nonesuch:n=1"}},
		{"protocol", "bgp", []string{"-protocol", "ospf"}},
		{"seed", "7", []string{"-seed", "x"}},
		{"mode", "hybrid", []string{"-mode", "warp"}},
		{"shards", "2", []string{"-shards", "-1"}},
		{"scenario", "failpath @400s", []string{"-scenario", "explode @400s"}},
		{"trials", "3", []string{"-trials", "0"}},
		{"flows", "2", []string{"-flows", "0"}},
		{"rate", "10", []string{"-rate", "0"}},
		{"senderstart", "395s", []string{"-senderstart", "401s"}},
		{"failat", "410s", []string{"-failat", "900s"}},
		{"failat", "410s", []string{"-failat", "410s", "-scenario", "failpath @400s"}},
		{"end", "500s", []string{"-end", "300s"}},
		{"ecmp", "true", []string{"-ecmp=maybe"}},
		{"detail", "true", []string{"-detail=maybe"}},
		{"timeline", filepath.Join(dir, "t.ndjson"), []string{"-trials", "1", "-timeline", missing}},
		{"cpuprofile", filepath.Join(dir, "cpu.prof"), []string{"-inspect", "-cpuprofile", missing}},
		{"memprofile", filepath.Join(dir, "mem.prof"), []string{"-inspect", "-memprofile", missing}},
		{"trace", "true", []string{"-trace=maybe"}},
		{"trial", "2", []string{"-trial", "-1"}},
		{"window", "30s", []string{"-window", "-5s"}},
		{"all-destinations", "true", []string{"-all-destinations=maybe"}},
		{"inspect", "true", []string{"-inspect=maybe"}},
		{"export", filepath.Join(dir, "g.edges"), []string{"-inspect", "-export", missing}},
	}
	listed := map[string]bool{}
	for _, c := range cases {
		listed[c.name] = true
		fs, _ := newFlagSet()
		fs.SetOutput(io.Discard)
		if err := fs.Parse([]string{"-" + c.name + "=" + c.good}); err != nil {
			t.Errorf("-%s=%s: %v", c.name, c.good, err)
		} else if f := fs.Lookup(c.name); f.Value.String() == f.DefValue {
			t.Errorf("-%s=%s left the default %q", c.name, c.good, f.DefValue)
		}
		if c.bad != nil {
			if err := run(c.bad, io.Discard); err == nil {
				t.Errorf("run(%q) succeeded, want error", c.bad)
			}
		}
	}
	fs, _ := newFlagSet()
	fs.VisitAll(func(f *flag.Flag) {
		if !listed[f.Name] {
			t.Errorf("flag -%s has no case in TestFlags", f.Name)
		}
	})
}

// checkRun runs convsim with args and checks that its output contains
// want, or, when want is empty, that it fails.
func checkRun(t *testing.T, args []string, want string) {
	t.Helper()
	var out bytes.Buffer
	err := run(args, &out)
	switch {
	case want == "" && err == nil:
		t.Error("run succeeded, want error")
	case want != "" && err != nil:
		t.Fatal(err)
	case !strings.Contains(out.String(), want):
		t.Errorf("output lacks %q:\n%s", want, out.String())
	}
}

// TestTrace runs the -trace mode: the §5.2-style replay of one trial.
func TestTrace(t *testing.T) {
	for _, c := range []struct {
		name string
		args []string
		want string // "" when run must fail
	}{
		{"replay", []string{"-protocol", "dbf", "-degree", "4", "-window", "30s"}, "forwarding path timeline"},
		{"all-destinations", []string{"-protocol", "ls", "-degree", "6", "-all-destinations"}, "route changes (node → destination)"},
		{"rejects-bad-protocol", []string{"-protocol", "nonesuch"}, ""},
		{"rejects-bad-trial", []string{"-trial", "-1"}, ""},
	} {
		t.Run(c.name, func(t *testing.T) { checkRun(t, append([]string{"-trace"}, c.args...), c.want) })
	}
}

// TestTimelineOneReplayPath pins that the run mode's -timeline and
// -trace -timeline write the same NDJSON for the same flags: both replay
// the trial through one path.
func TestTimelineOneReplayPath(t *testing.T) {
	dir := t.TempDir()
	runPath, tracePath := filepath.Join(dir, "run.ndjson"), filepath.Join(dir, "trace.ndjson")
	args := []string{"-protocol", "dbf", "-degree", "4", "-trials", "2", "-trial", "1"}
	if err := run(append(args, "-timeline", runPath), io.Discard); err != nil {
		t.Fatal(err)
	}
	if err := run(append(args, "-trace", "-timeline", tracePath), io.Discard); err != nil {
		t.Fatal(err)
	}
	a, err := os.ReadFile(runPath)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) == 0 || !bytes.Equal(a, b) {
		t.Errorf("run-mode timeline (%d bytes) and -trace timeline (%d bytes) differ", len(a), len(b))
	}
}

// TestInspect runs the -inspect mode: the router graph summary.
func TestInspect(t *testing.T) {
	edges := filepath.Join(t.TempDir(), "mesh.edges")
	for _, c := range []struct {
		name string
		args []string
		want string // "" when run must fail
	}{
		{"default", nil, "mesh 7x7, target degree 4\nnodes: 49  edges: 84  connected: true  diameter: 12"},
		{"topo", []string{"-topo", "fattree:k=4"}, "topo fattree:k=4\nnodes: 20  edges: 32"},
		{"export", []string{"-rows", "3", "-cols", "3", "-export", edges}, "wrote " + edges},
		{"small-mesh", []string{"-rows", "2", "-cols", "2", "-degree", "3"}, "mesh 2x2"},
		{"rejects-bad-degree", []string{"-degree", "99"}, ""},
	} {
		t.Run(c.name, func(t *testing.T) { checkRun(t, append([]string{"-inspect"}, c.args...), c.want) })
	}
	data, err := os.ReadFile(edges)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "# nodes 9\n") {
		t.Errorf("exported edge list starts %q", strings.SplitN(string(data), "\n", 2)[0])
	}
}
