package xmldb

import (
	"context"

	"altstacks/internal/obs"
	"altstacks/internal/xmlutil"
)

// Context-carrying variants of the database operations. They are what
// request-path callers (service handlers, the WSRF Home, subscription
// stores) use: each wraps the plain operation in an "xmldb.<op>" trace
// span joined to the request's trace and observes the storage stage
// histogram. The plain methods stay for context-free callers (wiring,
// background sweeps) and never open spans — obs.ChildSpan on a bare
// context would be nil anyway, so the two entry points converge when
// tracing is off.

// dbOp wraps one operation in its span and the storage histogram.
// name is the full span name, a constant: building it per call would
// allocate even with observability off.
func dbOp(ctx context.Context, name, collection string, fn func() error) error {
	t0 := obs.Start()
	span := obs.ChildSpan(ctx, name)
	span.SetAttr("collection", collection)
	err := fn()
	obs.StageStorage.ObserveSinceSpan(t0, span)
	span.Fail(err)
	span.End()
	return err
}

// CreateContext is Create traced under ctx's request span.
func (db *DB) CreateContext(ctx context.Context, collection, id string, doc *xmlutil.Element) error {
	return dbOp(ctx, "xmldb.create", collection, func() error { return db.Create(collection, id, doc) })
}

// GetContext is Get traced under ctx's request span.
func (db *DB) GetContext(ctx context.Context, collection, id string) (*xmlutil.Element, error) {
	var doc *xmlutil.Element
	err := dbOp(ctx, "xmldb.get", collection, func() error {
		var e error
		doc, e = db.Get(collection, id)
		return e
	})
	return doc, err
}

// UpdateContext is Update traced under ctx's request span.
func (db *DB) UpdateContext(ctx context.Context, collection, id string, doc *xmlutil.Element) error {
	return dbOp(ctx, "xmldb.update", collection, func() error { return db.Update(collection, id, doc) })
}

// PutContext is Put traced under ctx's request span.
func (db *DB) PutContext(ctx context.Context, collection, id string, doc *xmlutil.Element) error {
	return dbOp(ctx, "xmldb.put", collection, func() error { return db.Put(collection, id, doc) })
}

// DeleteContext is Delete traced under ctx's request span.
func (db *DB) DeleteContext(ctx context.Context, collection, id string) error {
	return dbOp(ctx, "xmldb.delete", collection, func() error { return db.Delete(collection, id) })
}

// ExistsContext is Exists traced under ctx's request span.
func (db *DB) ExistsContext(ctx context.Context, collection, id string) (bool, error) {
	var ok bool
	err := dbOp(ctx, "xmldb.exists", collection, func() error {
		var e error
		ok, e = db.Exists(collection, id)
		return e
	})
	return ok, err
}

// IDsContext is IDs traced under ctx's request span.
func (db *DB) IDsContext(ctx context.Context, collection string) ([]string, error) {
	var ids []string
	err := dbOp(ctx, "xmldb.ids", collection, func() error {
		var e error
		ids, e = db.IDs(collection)
		return e
	})
	return ids, err
}
