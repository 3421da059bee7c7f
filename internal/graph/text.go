package graph

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// ReadEdgeList parses a whitespace-separated text edge list — the format
// SNAP and the WebGraph-derived datasets of Table 1 are distributed in.
// Lines starting with '#' or '%' are comments; each data line is
// "src dst [weight]". Vertex ids may be sparse; the vertex count is
// 1 + the maximum id seen, and an id must be below MaxVertices. A weight
// column on any line makes the whole graph weighted (absent weights default
// to 1).
func ReadEdgeList(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	g := &Graph{}
	maxID := int64(-1)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' || line[0] == '%' {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, fmt.Errorf("graph: line %d: want \"src dst [weight]\", got %q", lineNo, line)
		}
		src, err := strconv.ParseUint(fields[0], 10, 31) // ids below MaxVertices
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad source %q", lineNo, fields[0])
		}
		dst, err := strconv.ParseUint(fields[1], 10, 31)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad destination %q", lineNo, fields[1])
		}
		e := Edge{Src: uint32(src), Dst: uint32(dst), Weight: 1}
		if len(fields) >= 3 {
			w, err := strconv.ParseFloat(fields[2], 32)
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: bad weight %q", lineNo, fields[2])
			}
			e.Weight = float32(w)
			g.Weighted = true
		}
		if int64(e.Src) > maxID {
			maxID = int64(e.Src)
		}
		if int64(e.Dst) > maxID {
			maxID = int64(e.Dst)
		}
		g.Edges = append(g.Edges, e)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	g.NumVertices = int(maxID + 1)
	if !g.Weighted {
		for i := range g.Edges {
			g.Edges[i].Weight = 0
		}
	}
	return g, nil
}

// ReadEdgeListFile reads a text edge list from the named file.
func ReadEdgeListFile(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadEdgeList(f)
}

// WriteEdgeList writes the graph as a text edge list, with a weight column
// when the graph is weighted.
func (g *Graph) WriteEdgeList(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	fmt.Fprintf(bw, "# %d vertices, %d edges\n", g.NumVertices, len(g.Edges))
	for _, e := range g.Edges {
		var err error
		if g.Weighted {
			_, err = fmt.Fprintf(bw, "%d %d %g\n", e.Src, e.Dst, e.Weight)
		} else {
			_, err = fmt.Fprintf(bw, "%d %d\n", e.Src, e.Dst)
		}
		if err != nil {
			return err
		}
	}
	return bw.Flush()
}
