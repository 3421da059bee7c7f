package store

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/core"
	"repro/internal/fault"
)

// The snapshot layout under DataDir is one binary graph file per registered
// name, an optional delta log of streaming mutations, and a manifest
// describing them:
//
//	<data-dir>/
//	    manifest.json      {"version":2,"next_lineage":N,"graphs":[...]}
//	    <name>.<L>.grzg    graph.WriteFile binary format (GRZG v1), edges in
//	                       CSR order (csr.Matrix.WriteFile)
//	    <name>.wal         edge delta log (GRZW v1, see internal/graph)
//
// Both the manifest and each snapshot are written to a temporary file,
// fsynced, renamed into place, and the directory fsynced (commitFile), so
// readers never observe a torn file and a name never outlives a power cut
// without its bytes; a crash mid-write leaves at worst a stale *.tmp
// alongside a consistent previous state.
//
// L is the graph's lineage: a store-wide counter minted fresh on every Add
// (never reused, persisted as next_lineage) that names one base-graph
// ancestry. The delta log's header carries the lineage it was written
// against, and snapshot filenames embed it, which is what makes whole-graph
// replacement crash-consistent alongside the WAL: a replace writes the new
// snapshot under a new lineage-qualified name and then commits by manifest
// rename, so at any crash point the manifest, the snapshot it references,
// and the lineage check in the WAL agree — a stale delta log from the
// replaced lineage is detected and discarded at open, never replayed onto
// the new base. Files the manifest no longer references are orphans from
// such crash windows; Open sweeps them.
const (
	manifestVersion = 2
	manifestFile    = "manifest.json"
	snapshotExt     = ".grzg"
)

// manifest is the on-disk index of persisted graphs.
type manifest struct {
	Version int `json:"version"`
	// NextLineage persists the lineage counter so a lineage is never reused
	// across restarts, even for deleted names.
	NextLineage uint64          `json:"next_lineage,omitempty"`
	Graphs      []manifestEntry `json:"graphs"`
}

// manifestEntry records one persisted graph. File is relative to the data
// directory; the metadata lets the store list cold graphs without opening
// their snapshots.
type manifestEntry struct {
	Name     string `json:"name"`
	File     string `json:"file"`
	Vertices int    `json:"vertices"`
	Edges    int    `json:"edges"`
	Weighted bool   `json:"weighted"`
	// Lineage is the base-graph ancestry the snapshot (and any delta log)
	// belongs to.
	Lineage uint64 `json:"lineage,omitempty"`
}

func manifestPath(dir string) string { return filepath.Join(dir, manifestFile) }

// snapshotFileName is the lineage-qualified file name snapshot writes use.
func snapshotFileName(name string, lineage uint64) string {
	return fmt.Sprintf("%s.%d%s", name, lineage, snapshotExt)
}

// walFileName is the delta log file name for a graph.
func walFileName(name string) string { return name + walExt }

// sweepOrphansLocked removes data-directory files that belong to no
// registered graph: snapshots and delta logs stranded by a crash inside a
// replace/compact commit window, and stale *.tmp rename leftovers.
// Quarantined files (snapshot or WAL) are preserved for post-mortem.
// Callers hold s.mu; errors are ignored — orphans are garbage, not state.
func (s *Store) sweepOrphansLocked() {
	entries, err := os.ReadDir(s.cfg.DataDir)
	if err != nil {
		return
	}
	live := make(map[string]bool, 2*len(s.graphs))
	for _, e := range s.graphs {
		if e.snapshot != "" {
			live[filepath.Base(e.snapshot)] = true
		}
		live[walFileName(e.name)] = true
	}
	for _, de := range entries {
		name := de.Name()
		if de.IsDir() || live[name] || name == manifestFile {
			continue
		}
		switch {
		case filepath.Ext(name) == ".tmp",
			filepath.Ext(name) == snapshotExt,
			filepath.Ext(name) == walExt:
			os.Remove(filepath.Join(s.cfg.DataDir, name))
		}
	}
}

// loadManifest reads the manifest, treating a missing file as empty.
func loadManifest(path string) (*manifest, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return &manifest{Version: manifestVersion}, nil
	}
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("store: parsing %s: %w", path, err)
	}
	if m.Version != manifestVersion {
		return nil, fmt.Errorf("store: manifest version %d, want %d", m.Version, manifestVersion)
	}
	return &m, nil
}

// syncManifestLocked rewrites the manifest to match the registry's persisted
// entries. Callers hold s.mu. A no-op without a data directory.
func (s *Store) syncManifestLocked() error {
	if s.cfg.DataDir == "" {
		return nil
	}
	m := manifest{Version: manifestVersion, NextLineage: s.nextLineage}
	for _, e := range s.graphs {
		if e.snapshot == "" {
			continue
		}
		m.Graphs = append(m.Graphs, manifestEntry{
			Name:     e.name,
			File:     filepath.Base(e.snapshot),
			Vertices: e.vertices,
			Edges:    e.edges,
			Weighted: e.weighted,
			Lineage:  e.lineage,
		})
	}
	sort.Slice(m.Graphs, func(i, j int) bool { return m.Graphs[i].Name < m.Graphs[j].Name })
	data, err := json.MarshalIndent(&m, "", "  ")
	if err != nil {
		return err
	}
	path := manifestPath(s.cfg.DataDir)
	tmp := path + ".tmp"
	if err := fault.Inject("store/manifest-write"); err != nil {
		return err
	}
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return err
	}
	return commitFile(tmp, path)
}

// commitFile makes tmp's content durable under path: sync the file, rename
// it into place, then sync the directory so the rename itself survives power
// loss. Every snapshot and manifest reaches its final name through here, and
// Compact calls it before rotating the delta log — so the log the snapshot
// supersedes (which IS fsynced) is never dropped while the bytes replacing
// it are still only in the page cache.
func commitFile(tmp, path string) error {
	if err := syncPath(tmp); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	return syncPath(filepath.Dir(path))
}

// syncPath fsyncs the named file or directory.
func syncPath(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeSnapshot persists g's edges, streamed out of its CSR, atomically and
// durably (write-to-temp, sync, rename, sync the directory). The
// store/snapshot-write failpoint simulates a process dying mid-stream: it
// leaves a torn temp file behind and never reaches the rename, exactly the
// on-disk state a crash produces — the previous snapshot and manifest stay
// intact.
func writeSnapshot(path string, g *core.Graph) error {
	tmp := path + ".tmp"
	if err := fault.Inject("store/snapshot-write"); err != nil {
		os.WriteFile(tmp, []byte(`GRZG torn write`), 0o644)
		return err
	}
	if err := g.CSR.WriteFile(tmp); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := commitFile(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}
