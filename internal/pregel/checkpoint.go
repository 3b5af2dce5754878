package pregel

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Checkpointer persists superstep snapshots for failure recovery. Snapshots
// are opaque byte blobs produced by the engine's codec plane; a checkpointer
// only stores and retrieves them. Implementations must be safe for use by
// one engine at a time (the engine never calls them concurrently).
type Checkpointer interface {
	// Save persists the snapshot taken at a superstep boundary, replacing
	// any earlier snapshot for the same superstep.
	Save(superstep int, snapshot []byte) error
	// Latest returns the most recent saved snapshot, or ok=false when
	// nothing has been saved yet.
	Latest() (superstep int, snapshot []byte, ok bool, err error)
}

// MemoryCheckpointer keeps snapshots in process memory. It survives engine
// restarts within a process (useful for tests and the in-process backends)
// but not process death — use NewDiskCheckpointer for that.
type MemoryCheckpointer struct {
	mu     sync.Mutex
	snaps  map[int][]byte
	latest int
	any    bool
}

// NewMemoryCheckpointer returns an empty in-memory checkpoint store.
func NewMemoryCheckpointer() *MemoryCheckpointer {
	return &MemoryCheckpointer{snaps: map[int][]byte{}}
}

// Save stores a copy of the snapshot.
func (c *MemoryCheckpointer) Save(superstep int, snapshot []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.snaps[superstep] = append([]byte(nil), snapshot...)
	if !c.any || superstep > c.latest {
		c.latest = superstep
	}
	c.any = true
	return nil
}

// Latest returns the snapshot with the highest superstep.
func (c *MemoryCheckpointer) Latest() (int, []byte, bool, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.any {
		return 0, nil, false, nil
	}
	return c.latest, c.snaps[c.latest], true, nil
}

// Load returns the snapshot saved at an exact superstep (ok=false if none).
// Not part of the Checkpointer interface; tests use it to replay from
// arbitrary boundaries.
func (c *MemoryCheckpointer) Load(superstep int) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	s, ok := c.snaps[superstep]
	return s, ok
}

// DiskCheckpointer persists snapshots as files in a directory, one file per
// superstep boundary, written atomically (temp file + rename) so a crash
// mid-write can never leave a truncated snapshot as the latest. Older
// snapshots beyond Keep are pruned after each save.
type DiskCheckpointer struct {
	dir string
	// Keep bounds how many snapshots remain on disk (<= 0 means 2: the
	// newest plus one fallback in case the newest write raced a crash).
	Keep int
}

// NewDiskCheckpointer stores snapshots under dir, creating it if needed.
func NewDiskCheckpointer(dir string) (*DiskCheckpointer, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &DiskCheckpointer{dir: dir}, nil
}

func (c *DiskCheckpointer) path(superstep int) string {
	return filepath.Join(c.dir, fmt.Sprintf("checkpoint-%09d.snap", superstep))
}

// Save writes the snapshot atomically and prunes old ones.
func (c *DiskCheckpointer) Save(superstep int, snapshot []byte) error {
	tmp := c.path(superstep) + ".tmp"
	if err := os.WriteFile(tmp, snapshot, 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, c.path(superstep)); err != nil {
		os.Remove(tmp)
		return err
	}
	keep := c.Keep
	if keep <= 0 {
		keep = 2
	}
	steps, err := c.steps()
	if err != nil {
		return nil // pruning is best-effort; the save itself succeeded
	}
	for len(steps) > keep {
		os.Remove(c.path(steps[0]))
		steps = steps[1:]
	}
	return nil
}

// Latest re-scans the directory, so a fresh process (or a fresh engine over
// the same directory) resumes from whatever the previous one left behind.
func (c *DiskCheckpointer) Latest() (int, []byte, bool, error) {
	steps, err := c.steps()
	if err != nil {
		return 0, nil, false, err
	}
	if len(steps) == 0 {
		return 0, nil, false, nil
	}
	step := steps[len(steps)-1]
	data, err := os.ReadFile(c.path(step))
	if err != nil {
		return 0, nil, false, err
	}
	return step, data, true, nil
}

// steps lists the saved superstep numbers in ascending order.
func (c *DiskCheckpointer) steps() ([]int, error) {
	entries, err := os.ReadDir(c.dir)
	if err != nil {
		return nil, err
	}
	var steps []int
	for _, ent := range entries {
		name := ent.Name()
		if !strings.HasPrefix(name, "checkpoint-") || !strings.HasSuffix(name, ".snap") {
			continue
		}
		s, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(name, "checkpoint-"), ".snap"))
		if err != nil {
			continue
		}
		steps = append(steps, s)
	}
	sort.Ints(steps)
	return steps, nil
}

// Snapshot format (versioned; all integers are uvarints unless noted):
//
//	magic "SHPS" | version byte | superstep | workers | total vertices
//	per vertex, worker-major then id-ascending (the engine's canonical
//	  order): id | flags byte (bit0 halted, bit1 state present) |
//	  [state value]
//	per worker: inbox length | per message: dst | message value
//	aggregated count | per entry, name-ascending: name len | name bytes |
//	  present byte | [value]
//	master blob length | blob bytes
//
// Values ride the typed-codec plane: one codec-id byte plus the codec
// payload, states and aggregated values through Options.Snapshots, inbox
// messages through Options.Codecs. Encoding order is canonical, so equal
// engine states produce byte-identical snapshots.
const (
	snapshotMagic   = "SHPS"
	snapshotVersion = 1
)

// checkpoint snapshots the engine at a superstep boundary and hands it to
// the checkpointer, charging the encoded size to Stats.CheckpointBytes.
func (e *Engine) checkpoint(superstep int) error {
	snap, err := e.encodeSnapshot(superstep)
	if err != nil {
		return fmt.Errorf("pregel: checkpoint at superstep %d: %w", superstep, err)
	}
	if err := e.opts.Checkpointer.Save(superstep, snap); err != nil {
		return fmt.Errorf("pregel: checkpoint at superstep %d: %w", superstep, err)
	}
	e.stats.CheckpointBytes += int64(len(snap))
	return nil
}

// snapValue encodes one vertex state or aggregated value via the snapshot
// registry, failing loudly when no codec covers it: silently dropping state
// would corrupt a later recovery.
func (e *Engine) snapValue(buf []byte, v interface{}) ([]byte, error) {
	if e.opts.Snapshots == nil {
		return buf, fmt.Errorf("Options.Snapshots registry required to encode %T", v)
	}
	return e.opts.Snapshots.appendValue(buf, v)
}

// encodeSnapshot serializes the complete barrier state at a superstep
// boundary: everything the next superstep's compute can observe.
func (e *Engine) encodeSnapshot(superstep int) ([]byte, error) {
	buf := append([]byte(nil), snapshotMagic...)
	buf = append(buf, snapshotVersion)
	buf = binary.AppendUvarint(buf, uint64(superstep))
	buf = binary.AppendUvarint(buf, uint64(len(e.workers)))
	total := 0
	for _, w := range e.workers {
		total += len(w.vertices)
	}
	buf = binary.AppendUvarint(buf, uint64(total))
	var err error
	for _, w := range e.workers {
		for _, v := range w.vertices {
			buf = binary.AppendUvarint(buf, uint64(v.ID))
			var flags byte
			if v.halted {
				flags |= 1
			}
			if v.State != nil {
				flags |= 2
			}
			buf = append(buf, flags)
			if v.State != nil {
				if buf, err = e.snapValue(buf, v.State); err != nil {
					return nil, fmt.Errorf("vertex %d state: %w", v.ID, err)
				}
			}
		}
	}
	for _, w := range e.workers {
		buf = binary.AppendUvarint(buf, uint64(w.in.len()))
		for i := 0; i < w.in.len(); i++ {
			buf = binary.AppendUvarint(buf, uint64(w.in.dst[i]))
			if e.opts.Codecs == nil {
				return nil, fmt.Errorf("Options.Codecs registry required to snapshot pending messages")
			}
			if buf, err = e.opts.Codecs.appendValue(buf, w.in.msg[i]); err != nil {
				return nil, fmt.Errorf("worker %d inbox: %w", w.id, err)
			}
		}
	}
	names := make([]string, 0, len(e.aggregated))
	for name := range e.aggregated {
		names = append(names, name)
	}
	sort.Strings(names)
	buf = binary.AppendUvarint(buf, uint64(len(names)))
	for _, name := range names {
		buf = binary.AppendUvarint(buf, uint64(len(name)))
		buf = append(buf, name...)
		v := e.aggregated[name]
		if v == nil {
			buf = append(buf, 0)
			continue
		}
		buf = append(buf, 1)
		if buf, err = e.snapValue(buf, v); err != nil {
			return nil, fmt.Errorf("aggregated %q: %w", name, err)
		}
	}
	var master []byte
	if e.opts.MasterSnapshot != nil {
		master = e.opts.MasterSnapshot()
	}
	buf = binary.AppendUvarint(buf, uint64(len(master)))
	buf = append(buf, master...)
	return buf, nil
}

// restoreSnapshot rewinds the engine to a snapshot taken by encodeSnapshot:
// vertex states and halted flags, pending inboxes, the merged aggregated
// map, and (via Options.MasterRestore) master closure state. Outboxes and
// in-flight worker aggregators are cleared — they were produced after the
// boundary being restored.
func (e *Engine) restoreSnapshot(data []byte) error {
	if len(data) < len(snapshotMagic)+1 || string(data[:len(snapshotMagic)]) != snapshotMagic {
		return fmt.Errorf("bad snapshot magic")
	}
	if v := data[len(snapshotMagic)]; v != snapshotVersion {
		return fmt.Errorf("unsupported snapshot version %d", v)
	}
	data = data[len(snapshotMagic)+1:]
	readUvarint := func() (uint64, error) {
		v, n := binary.Uvarint(data)
		if n <= 0 {
			return 0, fmt.Errorf("truncated snapshot")
		}
		data = data[n:]
		return v, nil
	}
	if _, err := readUvarint(); err != nil { // superstep: carried by the checkpointer
		return err
	}
	workers, err := readUvarint()
	if err != nil {
		return err
	}
	if int(workers) != len(e.workers) {
		return fmt.Errorf("snapshot for %d workers, engine has %d", workers, len(e.workers))
	}
	total, err := readUvarint()
	if err != nil {
		return err
	}
	wantTotal := 0
	for _, w := range e.workers {
		wantTotal += len(w.vertices)
	}
	if int(total) != wantTotal {
		return fmt.Errorf("snapshot has %d vertices, engine has %d", total, wantTotal)
	}
	for _, w := range e.workers {
		for _, v := range w.vertices {
			id, err := readUvarint()
			if err != nil {
				return err
			}
			if VertexID(id) != v.ID {
				return fmt.Errorf("snapshot vertex %d where engine expects %d", id, v.ID)
			}
			if len(data) == 0 {
				return fmt.Errorf("truncated snapshot")
			}
			flags := data[0]
			data = data[1:]
			v.halted = flags&1 != 0
			if flags&2 != 0 {
				if e.opts.Snapshots == nil {
					return fmt.Errorf("Options.Snapshots registry required to restore vertex states")
				}
				state, used, err := e.opts.Snapshots.decodeValue(data)
				if err != nil {
					return fmt.Errorf("vertex %d state: %w", id, err)
				}
				data = data[used:]
				v.State = state
			} else {
				v.State = nil
			}
		}
	}
	for _, w := range e.workers {
		w.in.reset()
		n, err := readUvarint()
		if err != nil {
			return err
		}
		for i := uint64(0); i < n; i++ {
			dst, err := readUvarint()
			if err != nil {
				return err
			}
			if !e.owns(w.id, VertexID(dst)) {
				return fmt.Errorf("worker %d inbox: message for vertex %d, not a vertex of the worker", w.id, dst)
			}
			msg, used, err := e.opts.Codecs.decodeValue(data)
			if err != nil {
				return fmt.Errorf("worker %d inbox: %w", w.id, err)
			}
			data = data[used:]
			w.in.push(envelope{dst: VertexID(dst), msg: msg})
		}
		w.clearOutboxes()
		w.aggregators = map[string]Aggregator{}
	}
	nAgg, err := readUvarint()
	if err != nil {
		return err
	}
	e.aggregated = map[string]interface{}{}
	for i := uint64(0); i < nAgg; i++ {
		nameLen, err := readUvarint()
		if err != nil {
			return err
		}
		if nameLen >= uint64(len(data)) { // need the name plus its presence byte
			return fmt.Errorf("truncated snapshot")
		}
		name := string(data[:nameLen])
		present := data[nameLen]
		data = data[nameLen+1:]
		if present == 0 {
			e.aggregated[name] = nil
			continue
		}
		if e.opts.Snapshots == nil {
			return fmt.Errorf("Options.Snapshots registry required to restore aggregated values")
		}
		v, used, err := e.opts.Snapshots.decodeValue(data)
		if err != nil {
			return fmt.Errorf("aggregated %q: %w", name, err)
		}
		data = data[used:]
		e.aggregated[name] = v
	}
	blobLen, err := readUvarint()
	if err != nil {
		return err
	}
	if uint64(len(data)) < blobLen {
		return fmt.Errorf("truncated snapshot")
	}
	blob := data[:blobLen]
	data = data[blobLen:]
	if len(data) != 0 {
		return fmt.Errorf("%d trailing bytes in snapshot", len(data))
	}
	if e.opts.MasterRestore != nil {
		if err := e.opts.MasterRestore(blob); err != nil {
			return fmt.Errorf("master restore: %w", err)
		}
	}
	return nil
}
