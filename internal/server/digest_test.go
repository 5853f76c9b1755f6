package server

import (
	"reflect"
	"testing"
)

// TestDigestCoversEverySpecField pins Spec.digest by test rather than by
// convention: perturbing any field must change the cache key, so a knob
// added to Spec without touching the digest fails here instead of serving
// another job's cached result. Only the fields below may leave it alone.
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
	typ := reflect.TypeOf(base)
	for i := 0; i < typ.NumField(); i++ {
		spec := base
		f := reflect.ValueOf(&spec).Elem().Field(i)
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
			t.Fatalf("Spec.%s has kind %s: teach this test to perturb it", typ.Field(i).Name, f.Kind())
		}
		changed := spec.digest("/stores/g.optstore") != want
		if reason, ok := exempt[typ.Field(i).Name]; ok {
			if changed {
				t.Errorf("Spec.%s is exempt (%s) but changes the digest", typ.Field(i).Name, reason)
			}
		} else if !changed {
			t.Errorf("Spec.%s does not change the digest: two jobs differing only in it would share a cached result", typ.Field(i).Name)
		}
	}
}
