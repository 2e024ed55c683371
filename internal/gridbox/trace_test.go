package gridbox

import (
	"strings"
	"testing"
	"time"

	"altstacks/internal/obs"
)

// TestGetAvailableResourcesTracesStorage: the VO handlers run their
// storage operations under the request context, so a traced
// GetAvailableResources carries xmldb.* spans beneath its
// container.dispatch root.
func TestGetAvailableResourcesTracesStorage(t *testing.T) {
	w := startWSRFWorld(t)
	obs.Enable()
	obs.ResetTraces()
	defer func() {
		obs.Disable()
		obs.ResetTraces()
	}()
	if _, err := w.client.GetAvailableResources("blast"); err != nil {
		t.Fatal(err)
	}

	// The dispatch span flushes as serveHTTP returns, which can trail
	// the client seeing the response; poll for the finished trace.
	var storage []string
	for deadline := time.Now().Add(2 * time.Second); ; {
		storage = allocationStorageSpans()
		if len(storage) > 0 || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	got := map[string]bool{}
	for _, name := range storage {
		got[name] = true
	}
	for _, want := range []string{"xmldb.ids", "xmldb.get"} {
		if !got[want] {
			t.Fatalf("GetAvailableResources trace has storage spans %v, want %s among them", storage, want)
		}
	}
}

// allocationStorageSpans returns the names of the xmldb.* spans that
// descend from the container.dispatch root of an /allocation request.
func allocationStorageSpans() []string {
	for _, tr := range obs.Traces() {
		root := tr.Root()
		if root == nil || root.Name != "container.dispatch" || !hasAttr(root, "path", "/allocation") {
			continue
		}
		byID := map[string]*obs.SpanData{}
		for i := range tr.Spans {
			byID[tr.Spans[i].ID] = &tr.Spans[i]
		}
		var names []string
		for _, s := range tr.Spans {
			if !strings.HasPrefix(s.Name, "xmldb.") {
				continue
			}
			for p := byID[s.Parent]; p != nil; p = byID[p.Parent] {
				if p == root {
					names = append(names, s.Name)
					break
				}
			}
		}
		return names
	}
	return nil
}

func hasAttr(s *obs.SpanData, k, v string) bool {
	for _, a := range s.Attrs {
		if a.K == k && a.V == v {
			return true
		}
	}
	return false
}
