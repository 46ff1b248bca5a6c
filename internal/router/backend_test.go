package router

import "testing"

// TestBackendIDPinned pins two backends' rendezvous identities, a hash of
// the configured URL, at values recorded before the hash moved into
// internal/canon: a moved id would re-place every cached spec.
func TestBackendIDPinned(t *testing.T) {
	for _, c := range []struct {
		url  string
		want uint64
	}{
		{"http://127.0.0.1:8090", 0x3e6dc73113ed7947},
		{"http://galoisd-b:8091/", 0xe6a677a75c304f65},
	} {
		if got := newBackend(c.url).id; got != c.want {
			t.Errorf("backend %q: id %#x, pinned %#x", c.url, got, c.want)
		}
	}
}
