package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"

	"ndpext/internal/sim"
)

// TestLiveSnapshotWhileCounting hammers a Live holder with one writer
// publishing snapshots of an evolving Counters while many readers load
// concurrently — the serving layer's progress path. Run under -race.
func TestLiveSnapshotWhileCounting(t *testing.T) {
	var live Live
	const (
		readers = 8
		rounds  = 2000
	)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var last uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				s, ok := live.Load()
				if !ok {
					continue
				}
				// Accesses only grows; a reader must never observe it
				// going backwards (each Load is a consistent copy).
				if s.Accesses < last {
					t.Errorf("snapshot went backwards: %d after %d", s.Accesses, last)
					return
				}
				last = s.Accesses
			}
		}()
	}

	// The "simulation goroutine": counts, snapshots, publishes.
	var c Counters
	for i := 0; i < rounds; i++ {
		c.Accesses++
		c.L1Hits++
		c.Add(LevelCacheDRAM, sim.FromNS(10))
		live.Publish(c.Snapshot(uint64(i+1), 0))
	}
	close(stop)
	wg.Wait()

	s, ok := live.Load()
	if !ok || s.Accesses != rounds || s.CacheHits != rounds {
		t.Fatalf("final snapshot = %+v, ok=%v; want accesses=cache_hits=%d", s, ok, rounds)
	}
	if live.Seq() != rounds {
		t.Fatalf("Seq() = %d, want %d", live.Seq(), rounds)
	}
	if s.LevelNS.CacheDRAM != float64(rounds)*10 {
		t.Fatalf("dram latency = %g ns, want %g", s.LevelNS.CacheDRAM, float64(rounds)*10)
	}
}

// TestJSONLConcurrentWriters writes events and notes from many goroutines
// into one JSONLProbe and checks every output line is intact JSON and
// nothing was lost or interleaved. Run under -race.
func TestJSONLConcurrentWriters(t *testing.T) {
	var buf bytes.Buffer
	p := NewJSONL(&buf)
	const (
		writers = 8
		perW    = 500
	)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				if i%10 == 9 {
					p.Note(map[string]int{"writer": w, "note": i})
					continue
				}
				ev := Event{Seq: uint64(i), Core: w, SID: int64(i), Served: LevelCacheDRAM}
				ev.Levels[LevelCacheDRAM] = sim.FromNS(float64(i))
				p.Record(&ev)
			}
		}(w)
	}
	wg.Wait()
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}

	lines := 0
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var v map[string]any
		if err := json.Unmarshal([]byte(line), &v); err != nil {
			t.Fatalf("line %d is not valid JSON: %v\n%s", lines, err, line)
		}
		lines++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if want := writers * perW; lines != want {
		t.Fatalf("got %d JSONL lines, want %d", lines, want)
	}
}

// TestRegistryMarshalJSON checks the canonical flat-object encoding.
func TestRegistryMarshalJSON(t *testing.T) {
	r := NewRegistry()
	r.PutUint("b.count", 3)
	r.PutFloat("a.energy_pj", 1.5)
	r.PutTime("c.busy", sim.FromNS(250))
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"a.energy_pj":1.5,"b.count":3,"c.busy":250}`
	if string(b) != want {
		t.Fatalf("MarshalJSON = %s, want %s", b, want)
	}
}
