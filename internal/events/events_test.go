package events

import "testing"

// TestKindNames: every declared kind has its own spelling — not the
// fallback — and MarshalText, the wire form of optd's SSE stream, carries
// it. The first value past the last declared kind must be the fallback, so
// a kind added without a String case fails here.
func TestKindNames(t *testing.T) {
	kinds := []struct {
		kind Kind
		name string
	}{
		{RunStart, "run-start"},
		{RunEnd, "run-end"},
		{IterationStart, "iteration-start"},
		{IterationEnd, "iteration-end"},
		{PagesRead, "pages-read"},
		{PagesWritten, "pages-written"},
		{TrianglesFound, "triangles-found"},
		{Morph, "morph"},
		{CoalescedRead, "coalesced-read"},
		{PrefetchHit, "prefetch-hit"},
		{PrefetchWasted, "prefetch-wasted"},
		{SubmittedBatch, "submitted-batch"},
		{RingDepth, "ring-depth"},
		{DirectFallback, "direct-fallback"},
		{ShardDispatched, "shard-dispatched"},
		{ShardRetried, "shard-retried"},
		{ShardMerged, "shard-merged"},
		{TaskDone, "task-done"},
	}
	const fallback = "unknown-event"
	seen := map[string]Kind{}
	for i, k := range kinds {
		if int(k.kind) != i {
			t.Fatalf("%s is kind %d, the table lists it at %d: a kind is missing from this test", k.name, k.kind, i)
		}
		if got := k.kind.String(); got != k.name || got == fallback {
			t.Errorf("Kind(%d).String() = %q, want %q", k.kind, got, k.name)
		}
		if prev, dup := seen[k.name]; dup {
			t.Errorf("kinds %d and %d share the spelling %q", prev, k.kind, k.name)
		}
		seen[k.name] = k.kind
		if text, err := k.kind.MarshalText(); err != nil || string(text) != k.name {
			t.Errorf("Kind(%d).MarshalText() = %q, %v; want %q", k.kind, text, err, k.name)
		}
	}
	if got := Kind(len(kinds)).String(); got != fallback {
		t.Errorf("Kind(%d) is declared (%q) but not in this test's table", len(kinds), got)
	}
}
