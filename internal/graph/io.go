package graph

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"iter"
	"math"
	"os"
	"path/filepath"
	"slices"
)

// ErrCorrupt is the sentinel wrapped by every deserialization failure that
// indicates damaged data rather than a transient I/O problem: bad magic,
// unsupported version, an implausible header, truncation mid-stream, or a
// structurally invalid graph. Retrying a read that failed this way cannot
// succeed; callers (the store's rehydration path) quarantine instead.
var ErrCorrupt = errors.New("graph: corrupt data")

// Binary format ("GRZG"), little-endian:
//
//	[4]byte  magic "GRZG"
//	uint32   version (1)
//	uint32   flags (bit 0: weighted; readers ignore the rest, which files
//	         from earlier writers may use to mark a grouping by source, bit 1,
//	         or by destination, bit 2)
//	uint64   numVertices
//	uint64   numEdges
//	numEdges × { uint32 src, uint32 dst [, float32 weight] }
//
// The Grazelle artifact ships each dataset as a "-push" / "-pull" file pair
// (edges grouped by source and by destination respectively); LoadPair reads
// that convention on top of this format, and csr.Matrix.WriteFile and
// vsparse.Array.WriteFile write either half of it, byte for byte alike.

const (
	magic   = "GRZG"
	version = 1

	flagWeighted = 1 << 0
)

// WriteBinary serializes the graph to w, one Write call per edge (see
// WriteEdges).
func (g *Graph) WriteBinary(w io.Writer) error {
	return WriteEdges(w, g.NumVertices, len(g.Edges), g.Weighted, slices.Values(g.Edges))
}

// WriteEdges writes the header for a graph of n vertices and numEdges edges,
// then every edge the sequence yields; it must yield numEdges of them. It
// makes one Write call per edge and buffers nothing, so a file or a socket
// wants a bufio.Writer around it (WriteEdgesFile has one) and an in-memory
// buffer does not.
func WriteEdges(w io.Writer, n, numEdges int, weighted bool, edges iter.Seq[Edge]) error {
	if _, err := io.WriteString(w, magic); err != nil {
		return err
	}
	var flags uint32
	if weighted {
		flags |= flagWeighted
	}
	var hdr [24]byte
	binary.LittleEndian.PutUint32(hdr[0:], version)
	binary.LittleEndian.PutUint32(hdr[4:], flags)
	binary.LittleEndian.PutUint64(hdr[8:], uint64(n))
	binary.LittleEndian.PutUint64(hdr[16:], uint64(numEdges))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	var rec [12]byte
	recLen := 8
	if weighted {
		recLen = 12
	}
	written := 0
	for e := range edges {
		binary.LittleEndian.PutUint32(rec[0:], e.Src)
		binary.LittleEndian.PutUint32(rec[4:], e.Dst)
		if weighted {
			binary.LittleEndian.PutUint32(rec[8:], floatBits(e.Weight))
		}
		if _, err := w.Write(rec[:recLen]); err != nil {
			return err
		}
		written++
	}
	if written != numEdges {
		return fmt.Errorf("graph: wrote %d edges under a header declaring %d", written, numEdges)
	}
	return nil
}

// ReadBinary deserializes a graph written by WriteBinary. It reads through
// r itself when r is a bufio.Reader (ReadFile passes one of 1 MB), through a
// default-sized one otherwise.
func ReadBinary(r io.Reader) (*Graph, error) {
	br := bufio.NewReader(r)
	var head [28]byte
	if _, err := io.ReadFull(br, head[:]); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, fmt.Errorf("%w: truncated header: %v", ErrCorrupt, err)
		}
		return nil, fmt.Errorf("graph: reading header: %w", err)
	}
	if string(head[:4]) != magic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrCorrupt, head[:4])
	}
	if v := binary.LittleEndian.Uint32(head[4:]); v != version {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrCorrupt, v)
	}
	flags := binary.LittleEndian.Uint32(head[8:])
	numV := binary.LittleEndian.Uint64(head[12:])
	numE := binary.LittleEndian.Uint64(head[20:])
	if numV > MaxVertices || numE > 1<<48 {
		return nil, fmt.Errorf("%w: implausible header (%d vertices, %d edges)", ErrCorrupt, numV, numE)
	}
	g := &Graph{
		NumVertices: int(numV),
		Weighted:    flags&flagWeighted != 0,
	}
	// Allocate incrementally with a capped initial capacity so a corrupt
	// header cannot force a huge up-front allocation. An edgeless graph
	// keeps a nil slice, matching what Builder produces.
	if numE > 0 {
		initialCap := numE
		if initialCap > 1<<20 {
			initialCap = 1 << 20
		}
		g.Edges = make([]Edge, 0, initialCap)
	}
	recLen := 8
	if g.Weighted {
		recLen = 12
	}
	var rec [12]byte
	for i := uint64(0); i < numE; i++ {
		if _, err := io.ReadFull(br, rec[:recLen]); err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				return nil, fmt.Errorf("%w: truncated at edge %d of %d", ErrCorrupt, i, numE)
			}
			return nil, fmt.Errorf("graph: reading edge %d: %w", i, err)
		}
		e := Edge{
			Src: binary.LittleEndian.Uint32(rec[0:]),
			Dst: binary.LittleEndian.Uint32(rec[4:]),
		}
		if g.Weighted {
			e.Weight = bitsFloat(binary.LittleEndian.Uint32(rec[8:]))
		}
		g.Edges = append(g.Edges, e)
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return g, nil
}

// LoadPair reads the "<base>-push" / "<base>-pull" pair and returns the
// push-ordered and pull-ordered graphs.
func LoadPair(base string) (push, pull *Graph, err error) {
	push, err = ReadFile(base + "-push")
	if err != nil {
		return nil, nil, err
	}
	pull, err = ReadFile(base + "-pull")
	if err != nil {
		return nil, nil, err
	}
	if push.NumVertices != pull.NumVertices || len(push.Edges) != len(pull.Edges) {
		return nil, nil, fmt.Errorf("graph: mismatched pair %q: %d/%d vertices, %d/%d edges",
			base, push.NumVertices, pull.NumVertices, len(push.Edges), len(pull.Edges))
	}
	return push, pull, nil
}

// WriteFile serializes the graph to the named file.
func (g *Graph) WriteFile(path string) error {
	return WriteEdgesFile(path, g.NumVertices, len(g.Edges), g.Weighted, slices.Values(g.Edges))
}

// WriteEdgesFile writes the file WriteFile writes for a graph of n vertices
// whose numEdges edges are, in file order, the ones edges yields: a caller
// holding them in another layout persists them without an edge list.
func WriteEdgesFile(path string, n, numEdges int, weighted bool, edges iter.Seq[Edge]) error {
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	err = WriteEdges(bw, n, numEdges, weighted, edges)
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// ReadFile deserializes a graph from the named file.
func ReadFile(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadBinary(bufio.NewReaderSize(f, 1<<20))
}

func floatBits(f float32) uint32 { return math.Float32bits(f) }

func bitsFloat(u uint32) float32 { return math.Float32frombits(u) }
