package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"ndpext/internal/server/scheduler"
	"ndpext/internal/server/store"
)

// buildNdpsim compiles the command once per test binary into a temp
// dir and returns the executable path.
func buildNdpsim(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "ndpsim")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestListDesigns: -list-designs prints every registered design —
// including the adaptive ndpext-mab — one per line, and exits 0.
func TestListDesigns(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binary")
	}
	bin := buildNdpsim(t)
	out, err := exec.Command(bin, "-list-designs").Output()
	if err != nil {
		t.Fatalf("-list-designs exited non-zero: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	got := make(map[string]bool, len(lines))
	for _, l := range lines {
		got[l] = true
	}
	for _, want := range []string{"NDPExt", "NDPExt-static", "Nexus", "Whirlpool", "Jigsaw", "Static", "Host", "NDPExt-MAB"} {
		if !got[want] {
			t.Errorf("-list-designs output missing %q:\n%s", want, out)
		}
	}
}

// TestUnknownDesignListsValid: a bogus -design fails with the valid
// list in the message (the structured ParseDesign error).
func TestUnknownDesignListsValid(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binary")
	}
	bin := buildNdpsim(t)
	out, err := exec.Command(bin, "-design", "bogus").CombinedOutput()
	if err == nil {
		t.Fatal("bogus design accepted")
	}
	if !strings.Contains(string(out), "valid:") || !strings.Contains(string(out), "NDPExt-MAB") {
		t.Fatalf("error does not list valid designs:\n%s", out)
	}
}

// TestMABJSONRunsIdentical: two CLI runs of the same adaptive spec emit
// byte-identical canonical JSON documents, although the epoch worker
// goroutine is scheduled differently each time — the CLI-level
// determinism fence.
func TestMABJSONRunsIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binary and simulates")
	}
	bin := buildNdpsim(t)
	args := []string{"-design", "ndpext-mab", "-workload", "recsys",
		"-accesses", "4000", "-bandit-seed", "7", "-json"}
	first, err := exec.Command(bin, args...).Output()
	if err != nil {
		t.Fatalf("first run: %v", err)
	}
	second, err := exec.Command(bin, args...).Output()
	if err != nil {
		t.Fatalf("second run: %v", err)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("two runs of the same spec differ:\n%s\nvs\n%s", first, second)
	}
	if !bytes.Contains(first, []byte(`"adapt_arm"`)) {
		t.Fatalf("document missing adapt_arm:\n%s", first)
	}
}

// TestLoadTraceRejectsNonNDPTRC: -load-trace on a file that is not an
// NDPTRC trace (here, one in the retired gob format) exits non-zero
// with the corrupt-trace message, and -load-trace refuses -save-trace.
func TestLoadTraceRejectsNonNDPTRC(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binary")
	}
	bin := buildNdpsim(t)
	path := filepath.Join(t.TempDir(), "old.gob")
	legacyMagic := []byte{'N', 'D', 'P', 'W', 'L', 1} // magic + version of the gob format
	if err := os.WriteFile(path, append(legacyMagic, "not an ndptrc file"...), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command(bin, "-load-trace", path).CombinedOutput()
	if err == nil {
		t.Fatal("non-NDPTRC trace accepted")
	}
	if !strings.Contains(string(out), "corrupt trace") {
		t.Fatalf("error does not name the corrupt trace:\n%s", out)
	}
	out, err = exec.Command(bin, "-load-trace", path, "-save-trace", path+".ndptrc").CombinedOutput()
	if err == nil || !strings.Contains(string(out), "do not combine") {
		t.Fatalf("-load-trace with -save-trace: err=%v\n%s", err, out)
	}
}

// TestOutOfRangeScaleFails: a -scale whose RMAT graphs exceed
// graph.RMAT's limit fails validation with the server's scale bound,
// not a panic.
func TestOutOfRangeScaleFails(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binary")
	}
	bin := buildNdpsim(t)
	out, err := exec.Command(bin, "-workload", "pr", "-scale", "100000", "-accesses", "100").CombinedOutput()
	if err == nil || bytes.Contains(out, []byte("panic")) || !bytes.Contains(out, []byte("workloads: scale 100000: graph: RMAT(32, 1)")) {
		t.Fatalf("-scale 100000: err=%v\n%s", err, out)
	}
}

// TestOversizedStreamFails: a -scale within the graph bound whose
// matrix overflows the remap table's 48-bit stream fields exits 1 with
// the generator's error, not a panic.
func TestOversizedStreamFails(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binary")
	}
	bin := buildNdpsim(t)
	out, err := exec.Command(bin, "-workload", "mv", "-design", "Jigsaw", "-scale", "4000", "-accesses", "100").CombinedOutput()
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != 1 || bytes.Contains(out, []byte("panic")) ||
		!bytes.Contains(out, []byte("workloads mv: stream 1: base/size exceed 48-bit fields")) {
		t.Fatalf("-scale 4000: err=%v\n%s", err, out)
	}
}

// TestFlagsKeyLikeScheduler is the fence between the two front ends:
// ndpsim's flags and ndpserve's JSON spec of the same run key alike
// under the scheduler's KeyFor, and for the faulted Nexus run on HMC the
// binary's -json document is the scheduler's result byte for byte.
func TestFlagsKeyLikeScheduler(t *testing.T) {
	const faults = "vault-fail,unit=5,at=100us;cxl-retry,rate=0.05,lat=200ns;cxl-degrade,at=200us,dur=100us,factor=4"
	nexus := []string{"-design", "Nexus", "-mem", "HMC", "-reconfig", "partial",
		"-faults", faults, "-fault-seed", "5", "-accesses", "2000"}
	nexusJSON := `{"workload":"pr","design":"Nexus","mem":"HMC","reconfig":"partial","faults":"` +
		faults + `","fault_seed":5,"accesses":2000}`
	cases := []struct {
		args []string
		spec string
	}{
		{nil, `{"workload":"pr"}`},
		{nexus, nexusJSON},
		{[]string{"-design", "ndpext-mab", "-bandit-seed", "7", "-arms", "paper,greedy"},
			`{"workload":"pr","design":"ndpext-mab","bandit_seed":7,"arms":"paper,greedy"}`},
		{[]string{"-design", "Host"}, `{"workload":"pr","design":"Host"}`},
	}

	st, err := store.Open(store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := scheduler.New(st, nil, scheduler.Options{Workers: 1})
	s.Start()
	defer s.Drain(context.Background())
	served := func(doc string) scheduler.JobSpec {
		t.Helper()
		var js scheduler.JobSpec
		if err := json.Unmarshal([]byte(doc), &js); err != nil {
			t.Fatal(err)
		}
		return js
	}

	for _, tc := range cases {
		opt, err := parseFlags(flag.NewFlagSet("ndpsim", flag.ContinueOnError), tc.args)
		if err != nil {
			t.Fatalf("%q: %v", tc.args, err)
		}
		spec := opt.spec.Normalize()
		cfg, err := spec.Build(opt.maxCycles)
		if err != nil {
			t.Fatalf("%q: %v", tc.args, err)
		}
		want, err := s.KeyFor(served(tc.spec))
		if err != nil {
			t.Fatalf("%s: %v", tc.spec, err)
		}
		if got := spec.Key(cfg, ""); got != want {
			t.Errorf("%q keys %s, the scheduler keys %s as %s", tc.args, got, tc.spec, want)
		}
	}

	if testing.Short() {
		t.Skip("builds the binary and simulates")
	}
	out, err := exec.Command(buildNdpsim(t), append(nexus, "-json")...).Output()
	if err != nil {
		t.Fatalf("ndpsim: %v", err)
	}
	j, err := s.Submit(served(nexusJSON))
	if err != nil {
		t.Fatal(err)
	}
	<-j.Done()
	if j.State() != scheduler.StateDone {
		t.Fatalf("served job %s: %s", j.State(), j.Status().Error)
	}
	if doc := append(j.Result(), '\n'); !bytes.Equal(out, doc) {
		t.Fatalf("ndpsim -json differs from the served document:\n%s\nvs\n%s", out, doc)
	}
}
