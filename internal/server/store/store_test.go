package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ndpext/internal/simcache"
	"ndpext/internal/system"
	"ndpext/internal/trace"
	"ndpext/internal/workloads"
)

func key(s string) simcache.Key { return simcache.Sum([]byte(s)) }

// TestPersistRoundTrip writes documents, persists, reopens from the
// same path, and checks every byte survives the round trip.
func TestPersistRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "index.json")
	s1, err := Open(Options{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	docs := map[string][]byte{
		"a": []byte(`{"schema_version":1,"design":"NDPExt"}`),
		"b": []byte(`{"schema_version":1,"design":"Nexus"}`),
	}
	for name, doc := range docs {
		s1.Put(key(name), doc)
	}
	if err := s1.Persist(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(Options{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	if got := s2.Stats().Entries; got != len(docs) {
		t.Fatalf("warm-loaded %d entries, want %d", got, len(docs))
	}
	for name, want := range docs {
		got, ok := s2.Get(key(name))
		if !ok || !bytes.Equal(got, want) {
			t.Errorf("doc %q: got %q ok=%v, want %q", name, got, ok, want)
		}
	}

	// A missing index file is a cold start, not an error.
	s3, err := Open(Options{Path: filepath.Join(t.TempDir(), "absent.json")})
	if err != nil {
		t.Fatal(err)
	}
	if got := s3.Stats().Entries; got != 0 {
		t.Errorf("cold start loaded %d entries", got)
	}
	// No path: Persist is a no-op.
	s4, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s4.Persist(); err != nil {
		t.Errorf("pathless Persist: %v", err)
	}
	if s4.Path() != "" {
		t.Errorf("pathless store reports path %q", s4.Path())
	}
}

// TestContainsIsStatsNeutral: the scheduler's batch planner peeks at
// residency under its admission lock; that peek must not perturb the
// hit/miss counters or entry recency.
func TestContainsIsStatsNeutral(t *testing.T) {
	s, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Contains(key("a")) {
		t.Fatal("empty store contains a key")
	}
	s.Put(key("a"), []byte("x"))
	before := s.Stats()
	for i := 0; i < 10; i++ {
		if !s.Contains(key("a")) {
			t.Fatal("stored key not contained")
		}
		if s.Contains(key("missing")) {
			t.Fatal("missing key contained")
		}
	}
	after := s.Stats()
	if before != after {
		t.Errorf("Contains moved the counters: %+v -> %+v", before, after)
	}
}

// TestContainsRespectsTTL: an expired entry must not count as resident,
// or the batch planner would under-reserve queue slots.
func TestContainsRespectsTTL(t *testing.T) {
	s, err := Open(Options{TTL: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	s.Put(key("a"), []byte("x"))
	time.Sleep(10 * time.Millisecond)
	if s.Contains(key("a")) {
		t.Error("expired entry still reported resident")
	}
}

func writeTrace(t *testing.T, path string, seed uint64) {
	t.Helper()
	gen, err := workloads.Get("pr")
	if err != nil {
		t.Fatal(err)
	}
	sc := workloads.DefaultScale()
	sc.AccessesPerCore = 100
	tr, err := gen(system.DefaultConfig(system.NDPExt).NumUnits(), seed, sc)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.SaveFile(path, tr); err != nil {
		t.Fatal(err)
	}
}

// TestTraceRegistryConfinement rejects every path shape that could
// reach outside the registry directory.
func TestTraceRegistryConfinement(t *testing.T) {
	r := NewTraceRegistry(t.TempDir())
	for _, name := range []string{"", ".", "..", "../x.ndptrc", "/etc/passwd", "a/../../x"} {
		if _, err := r.Resolve(name); err == nil {
			t.Errorf("Resolve(%q) escaped the registry", name)
		}
	}
	if p, err := r.Resolve("sub/ok.ndptrc"); err != nil {
		t.Errorf("Resolve rejected a legal nested name: %v", err)
	} else if got, want := p, filepath.Join(r.Dir(), "sub", "ok.ndptrc"); got != want {
		t.Errorf("Resolve = %q, want %q", got, want)
	}

	var disabled *TraceRegistry
	if disabled.Enabled() {
		t.Error("nil registry reports enabled")
	}
	for _, r := range []*TraceRegistry{NewTraceRegistry(""), nil} {
		if _, err := r.Resolve("x.ndptrc"); !errors.Is(err, ErrTracesDisabled) {
			t.Errorf("disabled registry Resolve err = %v, want ErrTracesDisabled", err)
		}
	}
	if _, err := NewTraceRegistry("").List(); !errors.Is(err, ErrTracesDisabled) {
		t.Error("disabled registry List did not return ErrTracesDisabled")
	}
}

// TestTraceRegistryDigestInvalidation: the digest must always name the
// bytes on disk — rewriting a file re-hashes it.
func TestTraceRegistryDigestInvalidation(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.ndptrc")
	writeTrace(t, path, 1)
	r := NewTraceRegistry(dir)

	d1, err := r.Digest("t.ndptrc")
	if err != nil {
		t.Fatal(err)
	}
	// Cached: same fingerprint, same digest.
	d1b, err := r.Digest("t.ndptrc")
	if err != nil || d1b != d1 {
		t.Fatalf("stable re-digest: %q vs %q (err %v)", d1b, d1, err)
	}
	want, err := trace.DigestFile(path)
	if err != nil || d1 != want {
		t.Fatalf("registry digest %q != file digest %q (err %v)", d1, want, err)
	}

	writeTrace(t, path, 2)
	// The (size, mtime) fingerprint keys the cache; force a visibly
	// different mtime for filesystems with coarse timestamps.
	future := time.Now().Add(2 * time.Second)
	if err := os.Chtimes(path, future, future); err != nil {
		t.Fatal(err)
	}
	d2, err := r.Digest("t.ndptrc")
	if err != nil {
		t.Fatal(err)
	}
	if d2 == d1 {
		t.Error("rewritten file kept its stale digest")
	}
}

// TestTraceRegistryList enumerates native trace files sorted by name,
// skipping foreign files.
func TestTraceRegistryList(t *testing.T) {
	dir := t.TempDir()
	writeTrace(t, filepath.Join(dir, "b.ndptrc"), 1)
	writeTrace(t, filepath.Join(dir, "a.ndptrc"), 2)
	if err := os.MkdirAll(filepath.Join(dir, "sub"), 0o755); err != nil {
		t.Fatal(err)
	}
	writeTrace(t, filepath.Join(dir, "sub", "c.ndptrc"), 3)
	if err := os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}

	infos, err := NewTraceRegistry(dir).List()
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, in := range infos {
		names = append(names, in.Name)
		if in.Digest == "" || in.Bytes == 0 {
			t.Errorf("trace %s listed without digest/size: %+v", in.Name, in)
		}
	}
	want := []string{"a.ndptrc", "b.ndptrc", filepath.Join("sub", "c.ndptrc")}
	if len(names) != len(want) {
		t.Fatalf("List = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("List = %v, want %v", names, want)
		}
	}
}

// TestOpenQuarantinesCorruptIndex: a corrupt warm-restart index must
// not brick the server. Open renames it aside, logs loudly, and starts
// cold; the next Persist writes a clean index to the original path.
func TestOpenQuarantinesCorruptIndex(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "index.json")

	// Build a real index, then flip a bit in its first byte so the
	// decoder trips immediately.
	s0, err := Open(Options{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	s0.Put(key("a"), []byte(`{"x":1}`))
	if err := s0.Persist(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[0] ^= 0x01
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	var logged bytes.Buffer
	logf := func(format string, args ...any) { fmt.Fprintf(&logged, format+"\n", args...) }
	s1, err := Open(Options{Path: path, Logf: logf})
	if err != nil {
		t.Fatalf("Open refused to start on a corrupt index: %v", err)
	}
	if got := s1.Stats().Entries; got != 0 {
		t.Errorf("quarantined start loaded %d entries, want cold", got)
	}
	if got := s1.IndexQuarantines(); got != 1 {
		t.Errorf("IndexQuarantines = %d, want 1", got)
	}
	qpath := path + ".corrupt-1"
	if s1.QuarantinedPath() != qpath {
		t.Errorf("QuarantinedPath = %q, want %q", s1.QuarantinedPath(), qpath)
	}
	moved, err := os.ReadFile(qpath)
	if err != nil {
		t.Fatalf("corrupt index not preserved at %s: %v", qpath, err)
	}
	if !bytes.Equal(moved, raw) {
		t.Error("quarantined file bytes differ from the corrupt index")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("corrupt index still present at %s (err %v)", path, err)
	}
	if !strings.Contains(logged.String(), "QUARANTINE") {
		t.Errorf("quarantine was not logged loudly: %q", logged.String())
	}

	// The store works and re-persists a clean index.
	s1.Put(key("b"), []byte(`{"y":2}`))
	if err := s1.Persist(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(Options{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	if got := s2.Stats().Entries; got != 1 {
		t.Errorf("re-persisted index warm-loaded %d entries, want 1", got)
	}
	if got := s2.IndexQuarantines(); got != 0 {
		t.Errorf("clean reopen counted %d quarantines", got)
	}

	// A second corruption picks the next free slot: .corrupt-2.
	if err := os.WriteFile(path, []byte("still not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	s3, err := Open(Options{Path: path, Logf: logf})
	if err != nil {
		t.Fatal(err)
	}
	if s3.QuarantinedPath() != path+".corrupt-2" {
		t.Errorf("second quarantine path = %q, want %q", s3.QuarantinedPath(), path+".corrupt-2")
	}
}

// TestOpenQuarantinesEmptyIndex: a zero-length index (e.g. a crash
// between create and write) quarantines like any other corruption.
func TestOpenQuarantinesEmptyIndex(t *testing.T) {
	path := filepath.Join(t.TempDir(), "index.json")
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(Options{Path: path, Logf: func(string, ...any) {}})
	if err != nil {
		t.Fatalf("Open refused to start on a zero-length index: %v", err)
	}
	if got := s.IndexQuarantines(); got != 1 {
		t.Errorf("IndexQuarantines = %d, want 1", got)
	}
	if _, err := os.Stat(path + ".corrupt-1"); err != nil {
		t.Errorf("zero-length index not quarantined: %v", err)
	}
	if err := s.Persist(); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{Path: path}); err != nil {
		t.Errorf("reopen after quarantine+persist: %v", err)
	}
}

// TestTraceRegistryQuarantine: a digest proven corrupt is rejected at
// admission time; fresh bytes under the same name lift the quarantine.
func TestTraceRegistryQuarantine(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.ndptrc")
	writeTrace(t, path, 1)
	r := NewTraceRegistry(dir)

	d1, err := r.Digest("t.ndptrc")
	if err != nil {
		t.Fatal(err)
	}
	cause := errors.New("chunk 3: crc mismatch")
	if got := r.Quarantine("t.ndptrc", cause); got != d1 {
		t.Fatalf("Quarantine marked digest %q, want %q", got, d1)
	}
	if got := r.Quarantines(); got != 1 {
		t.Errorf("Quarantines = %d, want 1", got)
	}
	// Idempotent per digest: piggybacked failures count once.
	r.Quarantine("t.ndptrc", cause)
	if got := r.Quarantines(); got != 1 {
		t.Errorf("repeat Quarantine bumped the counter to %d", got)
	}

	_, err = r.Digest("t.ndptrc")
	if !errors.Is(err, ErrTraceQuarantined) {
		t.Fatalf("Digest err = %v, want ErrTraceQuarantined", err)
	}
	if !strings.Contains(err.Error(), "crc mismatch") {
		t.Errorf("quarantine diagnostic lost: %v", err)
	}

	// Resolve still works — the name is not poisoned, the bytes are.
	if _, err := r.Resolve("t.ndptrc"); err != nil {
		t.Errorf("Resolve of quarantined trace: %v", err)
	}

	// Rewriting the file with fresh bytes yields a new digest and lifts
	// the quarantine for this name.
	writeTrace(t, path, 2)
	future := time.Now().Add(2 * time.Second)
	if err := os.Chtimes(path, future, future); err != nil {
		t.Fatal(err)
	}
	d2, err := r.Digest("t.ndptrc")
	if err != nil {
		t.Fatalf("fresh bytes still quarantined: %v", err)
	}
	if d2 == d1 {
		t.Error("rewritten file kept the quarantined digest")
	}

	// A vanished file marks nothing.
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if got := r.Quarantine("t.ndptrc", cause); got != "" {
		t.Errorf("Quarantine of a vanished file marked %q", got)
	}
	if got := r.Quarantines(); got != 1 {
		t.Errorf("vanished-file Quarantine bumped the counter to %d", got)
	}

	// Nil registry: counter reads as zero.
	var nilReg *TraceRegistry
	if got := nilReg.Quarantines(); got != 0 {
		t.Errorf("nil registry Quarantines = %d", got)
	}
}
