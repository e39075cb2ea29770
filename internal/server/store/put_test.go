package store

import (
	"bytes"
	"testing"
)

// TestPutInstallsWithoutComputing: Put (the cluster replication
// landing point) makes a document visible to Get/Contains, so the
// scheduler serves it without simulating.
func TestPutInstallsWithoutComputing(t *testing.T) {
	s, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	k := key("replicated-cell")
	doc := []byte(`{"schema_version":1,"from":"peer"}`)

	if s.Contains(k) {
		t.Fatal("fresh store contains the key")
	}
	s.Put(k, doc)
	if !s.Contains(k) {
		t.Fatal("Put did not install the document")
	}
	if got, ok := s.Get(k); !ok || !bytes.Equal(got, doc) {
		t.Fatalf("Get after Put = %q ok=%v", got, ok)
	}

	// Put overwrites: last write wins, as a re-replicated newer result
	// must replace an older copy.
	doc2 := []byte(`{"schema_version":1,"from":"peer2"}`)
	s.Put(k, doc2)
	if got, _ := s.Get(k); !bytes.Equal(got, doc2) {
		t.Fatalf("second Put did not overwrite: %s", got)
	}
}
