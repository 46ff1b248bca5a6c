package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"galois/internal/rescache"
)

// decodeSpec runs body through POST /jobs' decoder, as a request would,
// and returns the spec and the status the decoder wrote (200 if none).
func decodeSpec(body []byte) (Spec, int) {
	var spec Spec
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/jobs", bytes.NewReader(body))
	if !decode(rec, req, &spec, false) {
		return spec, rec.Code
	}
	return spec, http.StatusOK
}

// specKey is a normalized spec's rescache.KeyOf, with ok false where
// KeyOf gives none.
func specKey(s Spec) (key rescache.Key, ok bool) {
	key, err := rescache.KeyOf(s.Kind, s.Variant, s.Scale, s.Seed, s.Threads)
	return key, err == nil
}

// FuzzSpecDecode: whatever bytes POST /jobs receives, the spec decoder and
// normalization either refuse them with a 4xx or yield a normalized spec
// that is a fixed point: its JSON encoding decodes and normalizes back to
// the same spec, with the same rescache.KeyOf, which every deterministic
// spec has and no g-n spec does. Nothing panics. The seeds
// probe defaults left out and spelled out, case-folded and unknown field
// names, out-of-range threads, seeds and timeouts, the wrong JSON types,
// trailing bytes and an empty body.
func FuzzSpecDecode(f *testing.F) {
	for _, seed := range []string{
		`{"kind":"bfs","seed":7}`,
		`{"kind":"bfs","variant":"g-d","scale":"small","seed":7,"threads":1,"timeout_ms":30000}`,
		`{"kind":"dt","variant":"g-n","scale":"default","seed":18446744073709551615,"threads":8,"trace":true}`,
		`{"KIND":"msf","Variant":"g-dnc","seed":0,"threads":-3}`,
		`{"kind":"sssp","seed":1,"threads":9}`,
		`{"kind":"pfp","seed":-1}`,
		`{"kind":"mis","seed":1e3}`,
		`{"kind":"dmr","seed":2,"timeout_ms":-1}`,
		`{"kind":"mm","seed":2}`,
		`{"kind":"bfs","seed":3,"window":4}`,
		`{"kind":"bfs","seed":3} {"kind":"mis"}`,
		`{"kind":"bfs","variant":null,"seed":3}`,
		`[]`,
		``,
	} {
		f.Add([]byte(seed))
	}
	s := NewServer(Config{})
	f.Cleanup(func() { _ = s.Shutdown(context.Background()) })
	f.Fuzz(func(t *testing.T, body []byte) {
		raw, status := decodeSpec(body)
		if status != http.StatusOK {
			if status < 400 || status >= 500 {
				t.Fatalf("decoder refused %q with %d, want a 4xx", body, status)
			}
			return
		}
		spec, _, herr := s.normalize(raw)
		if herr != nil {
			if herr.status < 400 || herr.status >= 500 {
				t.Fatalf("normalize refused %q with %d, want a 4xx", body, herr.status)
			}
			return
		}
		enc, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("normalized spec %+v does not encode: %v", spec, err)
		}
		again, status := decodeSpec(enc)
		if status != http.StatusOK {
			t.Fatalf("the encoding %s of a normalized spec is refused with %d", enc, status)
		}
		if again != spec {
			t.Fatalf("%s decodes to %+v, not the normalized spec %+v", enc, again, spec)
		}
		if renorm, _, herr := s.normalize(again); herr != nil || renorm != spec {
			t.Fatalf("normalizing %+v again gives %+v (%v)", spec, renorm, herr)
		}
		k1, ok1 := specKey(spec)
		if ok1 != spec.Deterministic() {
			t.Fatalf("normalized spec %+v: KeyOf gives a key %v, deterministic %v", spec, ok1, spec.Deterministic())
		}
		if k2, ok2 := specKey(again); ok1 != ok2 || k1 != k2 {
			t.Fatalf("re-encoding %+v moved its key: %v/%v to %v/%v", spec, k1, ok1, k2, ok2)
		}
	})
}
