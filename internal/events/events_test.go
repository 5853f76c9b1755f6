package events

import "testing"

// TestKindNames: every declared kind carries its golden spelling, the wire
// form of optd's SSE stream, through String and MarshalText; the kinds are
// distinct, numbered in declaration order, and name every entry of the
// table, so a kind added without a name, or a name without a kind, fails
// here.
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
	if len(kindNames) != len(kinds) {
		t.Fatalf("kindNames has %d entries, the declared kinds are %d", len(kindNames), len(kinds))
	}
	for i, k := range kinds {
		t.Run(k.name, func(t *testing.T) {
			if int(k.kind.id) != i {
				t.Fatalf("%s has id %d, want %d (its place in declaration order)", k.name, k.kind.id, i)
			}
			if got := k.kind.String(); got != k.name {
				t.Errorf("String() = %q, want %q", got, k.name)
			}
			if text, err := k.kind.MarshalText(); err != nil || string(text) != k.name {
				t.Errorf("MarshalText() = %q, %v; want %q", text, err, k.name)
			}
		})
	}
	if (Kind{}) != RunStart {
		t.Errorf("the zero Kind is %s, want run-start", Kind{})
	}
}
