package server

import (
	"encoding/json"
	"reflect"
	"testing"
)

// TestDigestCoversEverySpecField pins Spec.digest by test rather than by
// convention: perturbing any field a client can send — the envelope's and,
// through the embedding, every tagged engine.Options field — must change
// the cache key, so a knob added without reaching the digest fails here
// instead of serving another job's cached result. Only the envelope fields
// below may leave it alone; `json:"-"` options are not on the wire, are
// set by the run itself, and are skipped.
func TestDigestCoversEverySpecField(t *testing.T) {
	exempt := map[string]string{
		"Store":   "the key is anchored on the resolved store path argument, not the client's spelling",
		"Timeout": "bounds how long the job may run, not what it computes",
	}
	var base Spec
	want := base.digest("/stores/g.optstore")
	if got := base.digest("/stores/h.optstore"); got == want {
		t.Error("digest ignores the resolved store path")
	}
	reachedOptions := false
	var walk func(typ reflect.Type, index []int)
	walk = func(typ reflect.Type, index []int) {
		for i := 0; i < typ.NumField(); i++ {
			sf := typ.Field(i)
			at := append(append([]int(nil), index...), i)
			if sf.Anonymous {
				walk(sf.Type, at)
				continue
			}
			if sf.Tag.Get("json") == "-" {
				continue
			}
			reachedOptions = reachedOptions || sf.Name == "Threads"
			spec := base
			f := reflect.ValueOf(&spec).Elem().FieldByIndex(at)
			switch f.Kind() {
			case reflect.String:
				f.SetString("x")
			case reflect.Int:
				f.SetInt(7)
			case reflect.Float64:
				f.SetFloat(0.5)
			case reflect.Bool:
				f.SetBool(true)
			default:
				t.Fatalf("Spec.%s has kind %s: teach this test to perturb it", sf.Name, f.Kind())
			}
			changed := spec.digest("/stores/g.optstore") != want
			if reason, ok := exempt[sf.Name]; ok {
				if changed {
					t.Errorf("Spec.%s is exempt (%s) but changes the digest", sf.Name, reason)
				}
			} else if !changed {
				t.Errorf("Spec.%s does not change the digest: two jobs differing only in it would share a cached result", sf.Name)
			}
		}
	}
	walk(reflect.TypeOf(base), nil)
	if !reachedOptions {
		t.Error("the walk never reached engine.Options.Threads: the embedded options are not being checked")
	}
}

// TestDigestSpellingOfDefaultModel: the edge model spelled out, spelled
// empty and left out are one computation and must share a cache entry.
func TestDigestSpellingOfDefaultModel(t *testing.T) {
	var want string
	for i, body := range []string{`{"store":"g"}`, `{"store":"g","model":""}`, `{"store":"g","model":"edge"}`} {
		var spec Spec
		if err := json.Unmarshal([]byte(body), &spec); err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		got := spec.digest("/stores/g.optstore")
		if i == 0 {
			want = got
		} else if got != want {
			t.Errorf("%s digests differently from a spec with no model", body)
		}
	}
	var vertex Spec
	if err := json.Unmarshal([]byte(`{"store":"g","model":"vertex"}`), &vertex); err != nil {
		t.Fatal(err)
	}
	if vertex.digest("/stores/g.optstore") == want {
		t.Error("the vertex model shares the edge model's digest")
	}
}
