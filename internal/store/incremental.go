package store

import "repro/internal/graph"

// This file is the store's contribution to incremental recompute (DESIGN.md
// §15): a bounded per-name history of recently published versions — which
// delta-log sequence each version's view extends through — plus
// DeltaBetween, which materializes the edge operations connecting two
// published versions of the same lineage. Serving layers use it to seed a
// run for version B from a cached result computed at version A.

// maxViewPoints bounds each name's retained history. Mutation bursts publish
// a version per durable watermark; seeds only ever reach a few versions back,
// so a short window is plenty and keeps the bookkeeping O(1) per publish.
const maxViewPoints = 32

// viewPoint is one published version of a name and the delta-log watermark
// its view extends through.
type viewPoint struct {
	version uint64
	viewSeq uint64
}

// lineageViews is the retained history for one name, in publish order.
// Replace and delete drop it wholesale: history never crosses lineages.
type lineageViews struct {
	points []viewPoint
}

// recordViewLocked appends e's current (version, viewSeq) to its name's
// history. Callers hold s.mu.
func (s *Store) recordViewLocked(e *entry) {
	lv := s.views[e.name]
	if lv == nil {
		lv = &lineageViews{}
		s.views[e.name] = lv
	}
	lv.points = append(lv.points, viewPoint{version: e.version, viewSeq: e.viewSeq})
	if len(lv.points) > maxViewPoints {
		lv.points = lv.points[len(lv.points)-maxViewPoints:]
	}
}

// resetViewsLocked starts a fresh history for e — Add (new lineage) and the
// cold registrations at Open. Callers hold s.mu.
func (s *Store) resetViewsLocked(e *entry) {
	s.views[e.name] = &lineageViews{}
	s.recordViewLocked(e)
}

// dropViewsLocked forgets a name's history (Delete). Callers hold s.mu.
func (s *Store) dropViewsLocked(name string) {
	delete(s.views, name)
}

// DeltaBetween returns the edge operations connecting version from to
// version to of the named graph, in log order: applied via
// graph.ApplyEdgeOps they transform the older version's edge set into the
// newer's. Both versions must be retained in the name's history (same
// lineage — replace and delete clear it), from must precede to, and the
// covered log range must still be resident (compaction's log rotation can
// fold the range away). It reports false whenever the delta
// cannot be recovered exactly; callers fall back to a full recompute, so a
// miss is never wrong, only slower.
func (s *Store) DeltaBetween(name string, from, to uint64) ([]graph.EdgeOp, bool) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, false
	}
	lv := s.views[name]
	e := s.graphs[name]
	if lv == nil || e == nil || from >= to {
		s.mu.Unlock()
		return nil, false
	}
	var fp, tp *viewPoint
	for i := range lv.points {
		switch lv.points[i].version {
		case from:
			fp = &lv.points[i]
		case to:
			tp = &lv.points[i]
		}
	}
	if fp == nil || tp == nil {
		s.mu.Unlock()
		return nil, false
	}
	fromSeq, toSeq := fp.viewSeq, tp.viewSeq
	delta := e.delta
	s.mu.Unlock()
	return delta.opsBetween(fromSeq, toSeq)
}

// opsBetween returns a copy of the acknowledged operations for every batch
// with sequence in (fromSeq, toSeq], concatenated in order — the delta
// transforming the view at fromSeq into the view at toSeq. It reports false
// when the range is not fully resident: fromSeq predates the compacted base
// or toSeq exceeds the durable watermark.
func (l *deltaLog) opsBetween(fromSeq, toSeq uint64) ([]graph.EdgeOp, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if fromSeq < l.baseSeq || toSeq > l.seq || fromSeq > toSeq {
		return nil, false
	}
	return l.opsInLocked(fromSeq, toSeq), true
}
