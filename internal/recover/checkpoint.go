package recover

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/durable"
	"repro/internal/mesh"
	"repro/internal/solver"
)

// Checkpoint is one durable snapshot of a running solve: enough to
// restart the exact iteration on a fresh process (the solver State) and
// enough to rebuild the machine it ran on (the partition and the fault
// plan's progress). MeshID ties the snapshot to its mesh — resuming
// against a different mesh is refused before any float is touched.
type Checkpoint struct {
	// MeshID identifies the mesh the snapshot belongs to (see MeshID).
	MeshID uint64
	// P and ElemPE are the partition at snapshot time — post-shrink
	// when PEs have already been lost.
	P      int32
	ElemPE []int32
	// Iter, Rho, X, R, PDir mirror solver.State: the consistent
	// (x, r, p, ρ) tuple entering iteration Iter.
	Iter int64
	Rho  float64
	X    []float64
	R    []float64
	PDir []float64
	// FaultPlan and FaultIter preserve the injector's progress: the
	// armed plan's canonical string (empty when none) and the kernel
	// invocations already executed, so a resumed run fast-forwards its
	// injector (fault.Injector.Advance) and later events keep their
	// absolute positions.
	FaultPlan string
	FaultIter int64
}

// State converts the checkpoint back to a solver resume state. The
// returned slices alias the checkpoint.
func (c *Checkpoint) State() *solver.State {
	return &solver.State{Iter: int(c.Iter), X: c.X, R: c.R, P: c.PDir, Rho: c.Rho}
}

// File format: one durable frame whose payload is the fixed-order,
// little-endian field list encoded by appendPayload. The magic names
// the version: a version 1 file ("QSIMCKPT" and a version word) is
// refused as bad magic, never misparsed. The decoder is strict: torn
// frames, checksum mismatches, trailing bytes, and internal lengths
// that disagree with the payload size are all errors — a corrupt
// checkpoint must never be half-loaded.
const (
	ckptMagic = "QCK2"
	// maxCkptPayload bounds the frame, and through it every allocation
	// the decoder makes; the largest scenario (sf2) encodes to ~36 MB.
	maxCkptPayload = 1 << 30
)

// MeshID fingerprints a mesh — FNV-1a over its sizes, connectivity,
// and coordinate bits — so a checkpoint written for one mesh is
// refused by a resume against any other.
func MeshID(m *mesh.Mesh) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		for s := 0; s < 64; s += 8 {
			h ^= (v >> s) & 0xff
			h *= prime64
		}
	}
	mix(uint64(m.NumNodes()))
	mix(uint64(m.NumElems()))
	for _, t := range m.Tets {
		for _, v := range t {
			mix(uint64(uint32(v)))
		}
	}
	for _, c := range m.Coords {
		mix(math.Float64bits(c.X))
		mix(math.Float64bits(c.Y))
		mix(math.Float64bits(c.Z))
	}
	return h
}

// Encode serializes the checkpoint. It fails only when the payload
// exceeds the frame bound.
func (c *Checkpoint) Encode() ([]byte, error) {
	payload := c.appendPayload(make([]byte, 0, 64+4*len(c.ElemPE)+8*(len(c.X)+len(c.R)+len(c.PDir))))
	return durable.AppendFrame(nil, ckptMagic, payload, maxCkptPayload)
}

func (c *Checkpoint) appendPayload(b []byte) []byte {
	b = binary.LittleEndian.AppendUint64(b, c.MeshID)
	b = binary.LittleEndian.AppendUint32(b, uint32(c.P))
	b = binary.LittleEndian.AppendUint64(b, uint64(len(c.ElemPE)))
	for _, pe := range c.ElemPE {
		b = binary.LittleEndian.AppendUint32(b, uint32(pe))
	}
	b = binary.LittleEndian.AppendUint64(b, uint64(c.Iter))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(c.Rho))
	b = binary.LittleEndian.AppendUint64(b, uint64(len(c.X)))
	for _, vec := range [][]float64{c.X, c.R, c.PDir} {
		for _, v := range vec {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
	}
	b = binary.LittleEndian.AppendUint64(b, uint64(c.FaultIter))
	b = binary.LittleEndian.AppendUint64(b, uint64(len(c.FaultPlan)))
	return append(b, c.FaultPlan...)
}

// Decode parses and validates an encoded checkpoint. Every rejection
// path returns an error; Decode never panics on hostile input
// (FuzzDecodeCheckpoint holds it to that).
func Decode(data []byte) (*Checkpoint, error) {
	payload, n, err := durable.NextFrame(data, ckptMagic, maxCkptPayload)
	if err != nil {
		return nil, fmt.Errorf("recover: checkpoint: %w", err)
	}
	if n != len(data) {
		return nil, fmt.Errorf("recover: %d trailing bytes after checkpoint frame", len(data)-n)
	}

	// Every count is checked against the bytes left in the payload
	// before anything is allocated, so a lying count cannot demand more
	// memory than the (bounded) frame holds.
	d := decoder{b: payload}
	c := &Checkpoint{}
	c.MeshID = d.u64()
	c.P = int32(d.u32())
	ne := d.u64()
	if ne > uint64(len(d.b))/4 {
		return nil, fmt.Errorf("recover: checkpoint claims %d elements in %d payload bytes", ne, len(d.b))
	}
	if c.P <= 0 {
		return nil, fmt.Errorf("recover: checkpoint has %d PEs", c.P)
	}
	c.ElemPE = make([]int32, ne)
	for i := range c.ElemPE {
		if c.ElemPE[i] = int32(d.u32()); c.ElemPE[i] < 0 || c.ElemPE[i] >= c.P {
			return nil, fmt.Errorf("recover: element %d assigned to PE %d of %d", i, c.ElemPE[i], c.P)
		}
	}
	c.Iter = int64(d.u64())
	c.Rho = math.Float64frombits(d.u64())
	ns := d.u64()
	if ns > uint64(len(d.b))/24 {
		return nil, fmt.Errorf("recover: checkpoint claims %d scalars per vector in %d payload bytes", ns, len(d.b))
	}
	for _, vp := range [3]*[]float64{&c.X, &c.R, &c.PDir} {
		*vp = make([]float64, ns)
		for i := range *vp {
			(*vp)[i] = math.Float64frombits(d.u64())
		}
	}
	c.FaultIter = int64(d.u64())
	c.FaultPlan = string(d.bytes(d.u64()))
	if d.err != nil {
		return nil, d.err
	}
	if len(d.b) != 0 {
		return nil, fmt.Errorf("recover: %d trailing bytes after checkpoint payload", len(d.b))
	}
	if c.Iter < 0 || c.FaultIter < 0 {
		return nil, fmt.Errorf("recover: negative iteration counter in checkpoint")
	}
	return c, nil
}

// decoder is a bounds-checked little-endian reader: the first short
// read latches err and every later read returns zero, so call sites
// stay linear and the single error check at the end suffices.
type decoder struct {
	b   []byte
	err error
}

func (d *decoder) u64() uint64 {
	if d.err != nil || len(d.b) < 8 {
		d.fail(8)
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b)
	d.b = d.b[8:]
	return v
}

func (d *decoder) u32() uint32 {
	if d.err != nil || len(d.b) < 4 {
		d.fail(4)
		return 0
	}
	v := binary.LittleEndian.Uint32(d.b)
	d.b = d.b[4:]
	return v
}

func (d *decoder) bytes(n uint64) []byte {
	if d.err != nil || uint64(len(d.b)) < n {
		d.fail(int(n))
		return nil
	}
	v := d.b[:n]
	d.b = d.b[n:]
	return v
}

func (d *decoder) fail(want int) {
	if d.err == nil {
		d.err = fmt.Errorf("recover: checkpoint payload truncated (%d bytes left, field needs %d)", len(d.b), want)
	}
}

// Store persists checkpoints in a directory, one file per snapshot
// named ckpt-<iteration>.qck. Writes are atomic (durable.WriteFile): a
// crash mid-write leaves at worst a stale .tmp file, which Prune
// sweeps, never a half-written checkpoint under the real name.
type Store struct {
	dir string
}

// NewStore opens (creating if needed) a checkpoint directory.
func NewStore(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("recover: checkpoint dir: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// Save atomically writes the checkpoint and returns its path. Bytes
// written and wall time are observed under recover.checkpoint.*.
func (s *Store) Save(c *Checkpoint) (string, error) {
	start := time.Now()
	data, err := c.Encode()
	if err != nil {
		return "", err
	}
	final := filepath.Join(s.dir, fmt.Sprintf("ckpt-%09d.qck", c.Iter))
	if err := durable.WriteFile(final, data); err != nil {
		return "", fmt.Errorf("recover: checkpoint write: %w", err)
	}
	ckptWrites.Add(1)
	ckptBytes.Observe(int64(len(data)))
	ckptDurationUS.Observe(time.Since(start).Microseconds())
	return final, nil
}

// Latest decodes the highest-iteration checkpoint in the store. It
// returns os.ErrNotExist (wrapped) when the directory holds no
// decodable checkpoint.
func (s *Store) Latest() (*Checkpoint, string, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, "", fmt.Errorf("recover: checkpoint dir: %w", err)
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && filepath.Ext(e.Name()) == ".qck" {
			names = append(names, e.Name())
		}
	}
	// Zero-padded iteration numbers sort lexically; walk newest-first so
	// one torn or corrupt latest file degrades to the previous snapshot
	// instead of failing the resume.
	sort.Sort(sort.Reverse(sort.StringSlice(names)))
	for _, name := range names {
		path := filepath.Join(s.dir, name)
		data, err := os.ReadFile(path)
		if err != nil {
			continue
		}
		c, err := Decode(data)
		if err != nil {
			continue
		}
		return c, path, nil
	}
	return nil, "", fmt.Errorf("recover: no checkpoint in %s: %w", s.dir, os.ErrNotExist)
}

// Prune deletes the oldest checkpoints beyond the newest keep and any
// stale .tmp leftovers, returning how many files it removed. Nothing
// else ever deletes a checkpoint, so a long solve that snapshots every
// few iterations calls this after each Save to hold its on-disk tail
// to a bounded window (the newest file is all a resume ever reads;
// the window behind it only buys tolerance to a torn latest write).
func (s *Store) Prune(keep int) (int, error) {
	if keep < 1 {
		keep = 1
	}
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return 0, fmt.Errorf("recover: checkpoint dir: %w", err)
	}
	var names []string
	removed := 0
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		switch filepath.Ext(e.Name()) {
		case ".qck":
			names = append(names, e.Name())
		case ".tmp":
			// A crash inside durable.WriteFile strands its temp file;
			// it can never be read, only accumulate.
			if os.Remove(filepath.Join(s.dir, e.Name())) == nil {
				removed++
			}
		}
	}
	// Zero-padded iteration numbers sort lexically: ascending order is
	// oldest-first, and everything before the last keep names goes.
	sort.Strings(names)
	for i := 0; i < len(names)-keep; i++ {
		if err := os.Remove(filepath.Join(s.dir, names[i])); err != nil {
			return removed, fmt.Errorf("recover: pruning checkpoint: %w", err)
		}
		removed++
	}
	if removed > 0 {
		ckptPruned.Add(int64(removed))
	}
	return removed, nil
}

// SizeBytes reports the total bytes the store currently holds on disk
// (checkpoints plus any stranded temp files) — the number a retention
// budget compares against.
func (s *Store) SizeBytes() (int64, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return 0, fmt.Errorf("recover: checkpoint dir: %w", err)
	}
	var total int64
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if info, err := e.Info(); err == nil {
			total += info.Size()
		}
	}
	return total, nil
}
