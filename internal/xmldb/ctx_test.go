// The race runtime drops sync.Pool items at random, so allocation
// counts are not deterministic under -race.

//go:build !race

package xmldb

import (
	"context"
	"testing"
)

// TestContextOpsAllocateLikePlainOps: with observability off, a
// *Context operation allocates exactly what the plain operation does —
// the span wrapper is free on the disabled path.
func TestContextOpsAllocateLikePlainOps(t *testing.T) {
	db := NewMemory(CostModel{})
	if err := db.Create("c", "1", counterDoc(1)); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	doc := counterDoc(2)
	for _, op := range []struct {
		name         string
		plain, trace func()
	}{
		{"get",
			func() { _, _ = db.Get("c", "1") },
			func() { _, _ = db.GetContext(ctx, "c", "1") }},
		{"exists",
			func() { _, _ = db.Exists("c", "1") },
			func() { _, _ = db.ExistsContext(ctx, "c", "1") }},
		{"ids",
			func() { _, _ = db.IDs("c") },
			func() { _, _ = db.IDsContext(ctx, "c") }},
		{"update",
			func() { _ = db.Update("c", "1", doc) },
			func() { _ = db.UpdateContext(ctx, "c", "1", doc) }},
		{"put",
			func() { _ = db.Put("c", "1", doc) },
			func() { _ = db.PutContext(ctx, "c", "1", doc) }},
		{"create+delete",
			func() { _ = db.Create("c", "2", doc); _ = db.Delete("c", "2") },
			func() { _ = db.CreateContext(ctx, "c", "2", doc); _ = db.DeleteContext(ctx, "c", "2") }},
	} {
		plain := testing.AllocsPerRun(100, op.plain)
		traced := testing.AllocsPerRun(100, op.trace)
		if traced != plain {
			t.Errorf("%s: %v allocs with context, %v without; want equal", op.name, traced, plain)
		}
	}
}
