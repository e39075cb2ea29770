package simcache

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func key(s string) Key { return Sum([]byte(s)) }

func TestSumLengthPrefixed(t *testing.T) {
	if Sum([]byte("ab"), []byte("c")) == Sum([]byte("a"), []byte("bc")) {
		t.Fatal("part boundaries are ambiguous")
	}
	if Sum([]byte("x")) != Sum([]byte("x")) {
		t.Fatal("hashing is not deterministic")
	}
}

func TestKeyRoundTrip(t *testing.T) {
	k := key("job")
	got, err := ParseKey(k.String())
	if err != nil || got != k {
		t.Fatalf("round trip: %v, %v", got, err)
	}
	if _, err := ParseKey("zz"); err == nil {
		t.Fatal("ParseKey accepted garbage")
	}
}

func TestLRUEviction(t *testing.T) {
	c := New[int](2, 0)
	c.Put(key("a"), 1)
	c.Put(key("b"), 2)
	if _, ok := c.Get(key("a")); !ok { // bump a; b becomes LRU
		t.Fatal("a missing")
	}
	c.Put(key("c"), 3)
	if _, ok := c.Get(key("b")); ok {
		t.Fatal("b should have been evicted")
	}
	for _, k := range []string{"a", "c"} {
		if _, ok := c.Get(key(k)); !ok {
			t.Fatalf("%s missing after eviction", k)
		}
	}
	if s := c.Stats(); s.Evictions != 1 || s.Entries != 2 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestTTLExpiry(t *testing.T) {
	c := New[string](8, time.Minute)
	now := time.Unix(1000, 0)
	c.now = func() time.Time { return now }
	c.Put(key("a"), "v")
	if _, ok := c.Get(key("a")); !ok {
		t.Fatal("fresh entry missing")
	}
	now = now.Add(2 * time.Minute)
	if _, ok := c.Get(key("a")); ok {
		t.Fatal("expired entry served")
	}
	if s := c.Stats(); s.Expirations != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

// TestDoSingleflight launches many goroutines for the same key and
// requires exactly one execution; distinct keys run independently.
func TestDoSingleflight(t *testing.T) {
	c := New[int](16, 0)
	var execs atomic.Int64
	release := make(chan struct{})
	const waiters = 16

	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, _, err := c.Do(key("same"), func() (int, error) {
				execs.Add(1)
				<-release // hold the flight open until everyone piled on
				return 42, nil
			})
			if err != nil || v != 42 {
				t.Errorf("Do = (%d, %v)", v, err)
			}
		}()
	}
	// Release the leader once every other caller has joined its flight.
	for c.Stats().Dedups < waiters-1 {
		runtime.Gosched()
	}
	close(release)
	wg.Wait()
	if n := execs.Load(); n != 1 {
		t.Fatalf("fn executed %d times, want 1", n)
	}
	if s := c.Stats(); s.Dedups != waiters-1 {
		t.Fatalf("dedups = %d, want %d: %+v", s.Dedups, waiters-1, s)
	}
	// A later Do is a pure cache hit.
	if _, hit, _ := c.Do(key("same"), func() (int, error) { t.Error("re-executed"); return 0, nil }); !hit {
		t.Fatal("expected cache hit")
	}
}

func TestDoErrorNotCached(t *testing.T) {
	c := New[int](4, 0)
	boom := errors.New("boom")
	calls := 0
	fail := func() (int, error) { calls++; return 0, boom }
	if _, _, err := c.Do(key("e"), fail); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	ok := func() (int, error) { calls++; return 7, nil }
	v, hit, err := c.Do(key("e"), ok)
	if err != nil || v != 7 || hit {
		t.Fatalf("retry = (%d, %v, %v)", v, hit, err)
	}
	if calls != 2 {
		t.Fatalf("calls = %d, want 2", calls)
	}
}

func TestPersistRoundTrip(t *testing.T) {
	c := New[[]byte](8, time.Hour)
	c.Put(key("a"), []byte(`{"r":1}`))
	c.Put(key("b"), []byte(`{"r":2}`))
	c.Get(key("a")) // make a the MRU

	var buf bytes.Buffer
	if err := SaveIndex(c, &buf); err != nil {
		t.Fatal(err)
	}
	fresh := New[[]byte](8, time.Hour)
	n, err := LoadIndex(fresh, &buf)
	if err != nil || n != 2 {
		t.Fatalf("LoadIndex = (%d, %v)", n, err)
	}
	for k, want := range map[string]string{"a": `{"r":1}`, "b": `{"r":2}`} {
		v, ok := fresh.Get(key(k))
		if !ok || string(v) != want {
			t.Fatalf("%s = (%q, %v), want %q", k, v, ok, want)
		}
	}

	// File round trip, including the missing-file cold start.
	dir := t.TempDir()
	path := filepath.Join(dir, "index.json")
	if n, err := LoadFile(New[[]byte](8, 0), filepath.Join(dir, "absent.json")); n != 0 || err != nil {
		t.Fatalf("cold start = (%d, %v)", n, err)
	}
	if err := SaveFile(c, path); err != nil {
		t.Fatal(err)
	}
	fresh2 := New[[]byte](8, time.Hour)
	if n, err := LoadFile(fresh2, path); n != 2 || err != nil {
		t.Fatalf("LoadFile = (%d, %v)", n, err)
	}
}

func TestPersistSkipsExpired(t *testing.T) {
	c := New[[]byte](8, 0)
	c.PutWithExpiry(key("dead"), []byte(`{}`), time.Now().Add(-time.Second))
	c.PutWithExpiry(key("live"), []byte(`{}`), time.Now().Add(time.Hour))
	var buf bytes.Buffer
	if err := SaveIndex(c, &buf); err != nil {
		t.Fatal(err)
	}
	fresh := New[[]byte](8, 0)
	if n, err := LoadIndex(fresh, &buf); n != 1 || err != nil {
		t.Fatalf("LoadIndex = (%d, %v), want 1 live entry", n, err)
	}
}

// TestConcurrentMixed hammers every entry point at once under -race.
func TestConcurrentMixed(t *testing.T) {
	c := New[int](32, time.Minute)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				k := key(fmt.Sprintf("k%d", i%40))
				switch i % 4 {
				case 0:
					c.Put(k, i)
				case 1:
					c.Get(k)
				case 2:
					c.Do(k, func() (int, error) { return i, nil })
				case 3:
					c.Stats()
				}
			}
		}(g)
	}
	wg.Wait()
}
