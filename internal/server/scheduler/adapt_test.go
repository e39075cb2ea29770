package scheduler

import (
	"bytes"
	"context"
	"strings"
	"sync"
	"testing"

	"ndpext/internal/server/result"
	"ndpext/internal/system"
	"ndpext/internal/workloads"
)

// TestMABSpecDefaultsAndKeying: bandit_seed defaults to 1 before
// keying, is part of the cache key, and arms is rejected on
// non-adaptive designs.
func TestMABSpecDefaultsAndKeying(t *testing.T) {
	spec := JobSpec{Workload: "pr", Design: "ndpext-mab"}.Normalize()
	if spec.BanditSeed != 1 {
		t.Fatalf("bandit_seed default = %d, want 1", spec.BanditSeed)
	}
	cfg, err := spec.Build(0)
	if err != nil {
		t.Fatal(err)
	}
	other := spec
	other.BanditSeed = 2
	ocfg, err := other.Build(0)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Key(cfg, "") == other.Key(ocfg, "") {
		t.Fatal("bandit_seed not part of the cache key")
	}

	armed := spec
	armed.Arms = "paper,greedy"
	acfg, err := armed.Build(0)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Key(cfg, "") == armed.Key(acfg, "") {
		t.Fatal("arms not part of the cache key")
	}

	bad := JobSpec{Workload: "pr", Arms: "greedy"}.Normalize()
	if _, err := bad.Build(0); err == nil || !strings.Contains(err.Error(), "NDPExt-MAB") {
		t.Fatalf("arms on a non-adaptive design: err = %v, want rejection", err)
	}
}

// TestMABUnknownDesignStructured: the spec surfaces ParseDesign's
// structured error so the transport can map it to a 422 with the list.
func TestMABUnknownDesignStructured(t *testing.T) {
	_, err := JobSpec{Workload: "pr", Design: "bogus"}.Normalize().Build(0)
	ude, ok := err.(*system.UnknownDesignError)
	if !ok {
		t.Fatalf("error type %T, want *system.UnknownDesignError", err)
	}
	if len(ude.Valid) != len(system.AllDesigns()) {
		t.Fatalf("valid list incomplete: %v", ude.Valid)
	}
}

// TestMABDeterminismAcrossSchedulers is the adaptive design's serving
// determinism fence: one NDPExt-MAB spec simulated directly and on two
// independent scheduler instances must produce byte-identical canonical
// documents, and a second identical submission must be a cache hit
// returning the same bytes.
func TestMABDeterminismAcrossSchedulers(t *testing.T) {
	spec := JobSpec{Workload: "recsys", Design: "ndpext-mab", Seed: 7,
		Accesses: 1000, BanditSeed: 7, EpochCycles: 50_000}.Normalize()
	cfg, err := spec.Build(0)
	if err != nil {
		t.Fatal(err)
	}

	gen, err := workloads.Get(spec.Workload)
	if err != nil {
		t.Fatal(err)
	}
	sc := workloads.DefaultScale()
	sc.AccessesPerCore = spec.Accesses
	sc.Mult = spec.Scale
	tr, err := gen(cfg.NumUnits(), spec.Seed, sc)
	if err != nil {
		t.Fatal(err)
	}
	resSerial, err := system.Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	docSerial, err := result.Encode(resSerial)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(docSerial, []byte(`"adapt_arm"`)) {
		t.Fatalf("document missing adapt_arm: %s", docSerial)
	}

	scheds := make([]*Scheduler, 2)
	schedDocs := make([][]byte, 2)
	var wg sync.WaitGroup
	for i := range schedDocs {
		s := newTestScheduler(t, Options{Workers: 4, QueueDepth: 8})
		defer s.Drain(context.Background())
		scheds[i] = s
		j, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(i int, j *Job) {
			defer wg.Done()
			waitJob(t, j)
			st := j.Status()
			if st.State != StateDone {
				t.Errorf("scheduler %d: job state %s (err %q)", i, st.State, st.Error)
				return
			}
			schedDocs[i] = st.Result
		}(i, j)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for i, doc := range schedDocs {
		if !bytes.Equal(doc, docSerial) {
			t.Errorf("scheduler %d diverged from the serial document\nserial: %s\nsched:  %s",
				i, docSerial, doc)
		}
	}

	// Resubmitting the identical spec must be served from the result
	// store without a second simulation, byte for byte.
	again, err := scheds[0].Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, again)
	if !again.CacheHit() {
		t.Fatal("second identical submission was not a cache hit")
	}
	if !bytes.Equal(again.Result(), docSerial) {
		t.Fatal("cached document differs from the first run")
	}
}
