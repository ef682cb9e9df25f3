// Package topoio imports and exports topologies and parses the -topo
// specification mini-language that selects a generator family or an
// edge-list file from the command line and from sweep specs.
//
// The interchange format is a plain edge-list text file: one undirected
// edge per line as "a b" (an optional third cost column is accepted and
// ignored — the simulator's protocols are hop-count based), with "#"
// comments and blank lines skipped. A "# nodes N" comment, which the
// writer always emits, pins the node count so trailing isolated nodes
// survive a round-trip; without it the count is max node ID + 1. This is
// the common denominator of published AS/ISP topology datasets, so
// measured graphs can be replayed directly.
package topoio

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"routeconv/internal/topology"
)

// maxVerbatimID caps node IDs, and the "# nodes N" header, when reading
// without remapping: the graph is dense in IDs, so a stray huge label (an
// AS number, say) or node count would allocate gigabytes. Larger labels
// need remapping.
const maxVerbatimID = 1 << 24

// ReadFile reads an edge-list file, keeping node IDs verbatim or, with
// remap, relabeling them densely in order of first appearance; see read.
func ReadFile(path string, remap bool) (*topology.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	g, err := read(f, remap)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return g, nil
}

// read parses an edge-list stream. Without remap it keeps node IDs
// verbatim: IDs must be non-negative and below 1<<24. With remap it
// relabels nodes densely in order of first appearance, for files whose
// labels are sparse or arbitrary (raw AS numbers, say); the "# nodes N"
// header is then ignored since original IDs are not preserved. Duplicate
// edges are ignored; self-loops are an error.
func read(r io.Reader, remap bool) (*topology.Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	g := topology.NewGraph(0)
	var remapIDs map[int64]topology.NodeID
	if remap {
		remapIDs = make(map[int64]topology.NodeID)
	}
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if line[0] == '#' {
			if !remap {
				if n, ok := nodesDirective(line); ok {
					if n > maxVerbatimID {
						return nil, fmt.Errorf("topoio: line %d: %d nodes > %d; use remapped import", lineNo, n, maxVerbatimID)
					}
					for g.Len() < n {
						g.AddNode()
					}
				}
			}
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 && len(fields) != 3 {
			return nil, fmt.Errorf("topoio: line %d: want \"a b [cost]\", got %q", lineNo, line)
		}
		a, err := parseLabel(fields[0])
		if err != nil {
			return nil, fmt.Errorf("topoio: line %d: %w", lineNo, err)
		}
		b, err := parseLabel(fields[1])
		if err != nil {
			return nil, fmt.Errorf("topoio: line %d: %w", lineNo, err)
		}
		if len(fields) == 3 {
			if _, err := strconv.ParseFloat(fields[2], 64); err != nil {
				return nil, fmt.Errorf("topoio: line %d: bad cost %q", lineNo, fields[2])
			}
		}
		if a == b {
			return nil, fmt.Errorf("topoio: line %d: self-loop at node %d", lineNo, a)
		}
		var na, nb topology.NodeID
		if remap {
			na, nb = remapID(g, remapIDs, a), remapID(g, remapIDs, b)
		} else {
			if a >= maxVerbatimID || b >= maxVerbatimID {
				return nil, fmt.Errorf("topoio: line %d: node ID ≥ %d; use remapped import", lineNo, maxVerbatimID)
			}
			grow := a
			if b > grow {
				grow = b
			}
			for int64(g.Len()) <= grow {
				g.AddNode()
			}
			na, nb = topology.NodeID(a), topology.NodeID(b)
		}
		g.AddEdge(na, nb)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("topoio: %w", err)
	}
	if g.Len() == 0 {
		return nil, errors.New("topoio: empty edge list")
	}
	return g, nil
}

func parseLabel(s string) (int64, error) {
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad node ID %q", s)
	}
	if v < 0 {
		return 0, fmt.Errorf("negative node ID %d", v)
	}
	return v, nil
}

func remapID(g *topology.Graph, ids map[int64]topology.NodeID, label int64) topology.NodeID {
	if id, ok := ids[label]; ok {
		return id
	}
	id := g.AddNode()
	ids[label] = id
	return id
}

// nodesDirective recognizes the "# nodes N" header comment.
func nodesDirective(line string) (int, bool) {
	fields := strings.Fields(strings.TrimPrefix(line, "#"))
	if len(fields) != 2 || fields[0] != "nodes" {
		return 0, false
	}
	n, err := strconv.Atoi(fields[1])
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}

// Write streams g as an edge list: a "# nodes N" header followed by every
// edge in sorted order, one "a b" line each.
func Write(w io.Writer, g *topology.Graph) error {
	bw := bufio.NewWriter(w)
	buf := make([]byte, 0, 32)
	buf = append(buf, "# nodes "...)
	buf = strconv.AppendInt(buf, int64(g.Len()), 10)
	buf = append(buf, '\n')
	if _, err := bw.Write(buf); err != nil {
		return err
	}
	for _, e := range g.Edges() {
		buf = buf[:0]
		buf = strconv.AppendInt(buf, int64(e.A), 10)
		buf = append(buf, ' ')
		buf = strconv.AppendInt(buf, int64(e.B), 10)
		buf = append(buf, '\n')
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteFile writes g as an edge-list file; see Write.
func WriteFile(path string, g *topology.Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Write(f, g); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
