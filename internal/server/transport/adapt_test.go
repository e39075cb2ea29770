package transport

import (
	"testing"

	"ndpext/internal/server/scheduler"
	"ndpext/internal/server/wire"
	"ndpext/internal/system"
)

// TestUnknownDesign422 maps the structured ParseDesign error to a 422
// whose body enumerates every accepted design, on both the job and
// batch submission paths.
func TestUnknownDesign422(t *testing.T) {
	_, srv := newTestStack(t, scheduler.Options{Workers: 1, QueueDepth: 4})

	check := func(url, body string) {
		t.Helper()
		resp := postJSON(t, url, body)
		if resp.StatusCode != 422 {
			t.Fatalf("POST %s = %d, want 422", url, resp.StatusCode)
		}
		doc := decode[wire.ErrorDoc](t, resp)
		if len(doc.ValidDesigns) != len(system.AllDesigns()) {
			t.Fatalf("valid_designs = %v, want all %d designs", doc.ValidDesigns, len(system.AllDesigns()))
		}
		found := false
		for _, d := range doc.ValidDesigns {
			if d == "NDPExt-MAB" {
				found = true
			}
		}
		if !found {
			t.Fatalf("valid_designs missing NDPExt-MAB: %v", doc.ValidDesigns)
		}
	}

	check(srv.URL+"/v1/jobs", `{"workload":"pr","design":"bogus"}`)
	check(srv.URL+"/v1/batch", `{"designs":["bogus"],"workloads":["pr"]}`)

	// A malformed-but-known spec still gets a plain 400 with no list.
	resp := postJSON(t, srv.URL+"/v1/jobs", `{"workload":"no-such-workload"}`)
	if resp.StatusCode != 400 {
		t.Fatalf("unknown workload = %d, want 400", resp.StatusCode)
	}
	if doc := decode[wire.ErrorDoc](t, resp); len(doc.ValidDesigns) != 0 {
		t.Fatalf("400 body unexpectedly carries valid_designs: %v", doc.ValidDesigns)
	}
}
