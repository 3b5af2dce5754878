package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"

	"shp/internal/gen"
	"shp/internal/hgio"
	"shp/internal/hypergraph"
	"shp/internal/partition"
	"shp/internal/serve"
)

const graphFile = "graph.hgr"

// socialGraph is the input every workload partitions: the ego-net
// generator at the hgen defaults.
func socialGraph(users int, seed uint64) (*hypergraph.Bipartite, error) {
	return gen.SocialEgoNets(users, avgFriends, communitySize, intraFraction, seed)
}

// writeGraph writes g in hMETIS format to dir/graph.hgr.
func writeGraph(g *hypergraph.Bipartite, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return writeFile(filepath.Join(dir, graphFile), func(w *bufio.Writer) error { return hgio.WriteHMetis(w, g) })
}

func writeFile(path string, fill func(w *bufio.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriterSize(f, 1<<20)
	if err := fill(w); err != nil {
		return err
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}

// loadGraph reads dir/graph.hgr and prunes hyperedges with fewer than two
// members, the paper's preprocessing.
func (e *env) loadGraph() (*hypergraph.Bipartite, error) {
	path := filepath.Join(e.dir, graphFile)
	sp := e.tr.begin("hgio.read")
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	g, err := hgio.ReadHMetis(bufio.NewReaderSize(f, 1<<20))
	if err != nil {
		return nil, fmt.Errorf("reading %s: %w", path, err)
	}
	e.tr.end(sp)
	sp = e.tr.begin("hypergraph.prune")
	g = hypergraph.PruneTrivialQueries(g, 2)
	e.tr.end(sp)
	return g, nil
}

// fileMB returns the size of path in MiB, or 0 if it cannot be read.
func fileMB(path string) float64 {
	st, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return float64(st.Size()) / (1 << 20)
}

// writeAssignment writes a to dir/name.
func (e *env) writeAssignment(a partition.Assignment, name string) error {
	sp := e.tr.begin("hgio.write")
	defer e.tr.end(sp)
	return writeFile(filepath.Join(e.dir, name), func(w *bufio.Writer) error { return hgio.WriteAssignment(w, a) })
}

// checksum folds a through serve.Checksum, the serving plane's torn-read
// detector, so repeats of one operation can be compared.
func (e *env) checksum(a partition.Assignment) uint64 {
	sp := e.tr.begin("serve.checksum")
	defer e.tr.end(sp)
	return serve.Checksum(a)
}

// fanout recomputes the average query fanout of a on g.
func (e *env) fanout(g *hypergraph.Bipartite, a partition.Assignment, k int) float64 {
	sp := e.tr.begin("partition.fanout")
	defer e.tr.end(sp)
	return partition.Fanout(g, a, k)
}

// checkAssignment reports whether a has one bucket in [0,k) per data
// vertex of g.
func checkAssignment(g *hypergraph.Bipartite, a partition.Assignment, k int) error {
	if len(a) != g.NumData() {
		return fmt.Errorf("assignment has %d entries for %d data vertices", len(a), g.NumData())
	}
	return a.Validate(k)
}

// checkWritten reads back the assignment file name and compares it with a,
// then checks that the on-disk assignment's recomputed fanout equals the
// fanout reported for a.
func (e *env) checkWritten(g *hypergraph.Bipartite, a partition.Assignment, k int, name string, reported float64) error {
	f, err := os.Open(filepath.Join(e.dir, name))
	if err != nil {
		return err
	}
	defer f.Close()
	disk, err := hgio.ReadAssignment(bufio.NewReader(f))
	if err != nil {
		return fmt.Errorf("reading back %s: %w", name, err)
	}
	if len(disk) != len(a) {
		return fmt.Errorf("%s holds %d entries, want %d", name, len(disk), len(a))
	}
	for i := range a {
		if disk[i] != a[i] {
			return fmt.Errorf("%s entry %d is %d, want %d", name, i, disk[i], a[i])
		}
	}
	if got := partition.Fanout(g, disk, k); got != reported {
		return fmt.Errorf("fanout of %s is %v, reported %v", name, got, reported)
	}
	return nil
}
