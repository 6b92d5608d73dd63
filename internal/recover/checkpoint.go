package recover

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

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

// File format (all integers little-endian):
//
//	offset size  field
//	0      8     magic "QSIMCKPT"
//	8      4     version (currently 1)
//	12     8     payload length in bytes
//	20     4     CRC-32C (Castagnoli) of the payload
//	24     …     payload
//
// The payload is the fixed-order field list encoded by appendPayload.
// The decoder is strict: short files, trailing bytes, version skew,
// checksum mismatches, and internal length fields that disagree with
// the payload size are all distinct errors — a corrupt checkpoint must
// never be half-loaded.
const (
	ckptMagic   = "QSIMCKPT"
	ckptVersion = 1
	headerLen   = 8 + 4 + 8 + 4

	// maxCkptElems / maxCkptScalars bound the decoder's allocations so a
	// corrupted length field cannot demand petabytes.
	maxCkptElems   = 1 << 28
	maxCkptScalars = 1 << 28
	maxCkptPlan    = 1 << 20
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

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

// Encode serializes the checkpoint.
func (c *Checkpoint) Encode() []byte {
	payload := c.appendPayload(make([]byte, 0, 64+4*len(c.ElemPE)+8*(len(c.X)+len(c.R)+len(c.PDir))))
	buf := make([]byte, 0, headerLen+len(payload))
	buf = append(buf, ckptMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, ckptVersion)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(payload)))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(payload, castagnoli))
	return append(buf, payload...)
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
	if len(data) < headerLen {
		return nil, fmt.Errorf("recover: checkpoint truncated: %d bytes, header needs %d", len(data), headerLen)
	}
	if string(data[:8]) != ckptMagic {
		return nil, fmt.Errorf("recover: not a checkpoint file (bad magic)")
	}
	if v := binary.LittleEndian.Uint32(data[8:]); v != ckptVersion {
		return nil, fmt.Errorf("recover: checkpoint version %d, this build reads %d", v, ckptVersion)
	}
	plen := binary.LittleEndian.Uint64(data[12:])
	if plen != uint64(len(data)-headerLen) {
		return nil, fmt.Errorf("recover: payload length %d, file carries %d", plen, len(data)-headerLen)
	}
	payload := data[headerLen:]
	if sum := crc32.Checksum(payload, castagnoli); sum != binary.LittleEndian.Uint32(data[20:]) {
		return nil, fmt.Errorf("recover: checkpoint checksum mismatch")
	}

	d := decoder{b: payload}
	c := &Checkpoint{}
	c.MeshID = d.u64()
	c.P = int32(d.u32())
	ne := d.u64()
	if ne > maxCkptElems {
		return nil, fmt.Errorf("recover: checkpoint claims %d elements", ne)
	}
	if c.P <= 0 {
		return nil, fmt.Errorf("recover: checkpoint has %d PEs", c.P)
	}
	c.ElemPE = make([]int32, 0, min(int(ne), 1<<16))
	for i := uint64(0); i < ne; i++ {
		pe := int32(d.u32())
		if d.err == nil && (pe < 0 || pe >= c.P) {
			return nil, fmt.Errorf("recover: element %d assigned to PE %d of %d", i, pe, c.P)
		}
		c.ElemPE = append(c.ElemPE, pe)
	}
	c.Iter = int64(d.u64())
	c.Rho = math.Float64frombits(d.u64())
	n := d.u64()
	if n > maxCkptScalars {
		return nil, fmt.Errorf("recover: checkpoint claims %d scalars per vector", n)
	}
	vecs := [3]*[]float64{&c.X, &c.R, &c.PDir}
	for _, vp := range vecs {
		*vp = make([]float64, 0, min(int(n), 1<<16))
		for i := uint64(0); i < n; i++ {
			*vp = append(*vp, math.Float64frombits(d.u64()))
		}
	}
	c.FaultIter = int64(d.u64())
	pl := d.u64()
	if pl > maxCkptPlan {
		return nil, fmt.Errorf("recover: checkpoint claims a %d-byte fault plan", pl)
	}
	c.FaultPlan = string(d.bytes(pl))
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
// named ckpt-<iteration>.qck. Writes are atomic: the encoding goes to
// a temporary file in the same directory, is synced, and is renamed
// into place — a crash mid-write leaves at worst a stale .tmp file the
// strict decoder would reject anyway, never a half-written checkpoint
// under the real name.
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
	data := c.Encode()
	final := filepath.Join(s.dir, fmt.Sprintf("ckpt-%09d.qck", c.Iter))
	tmp, err := os.CreateTemp(s.dir, "ckpt-*.tmp")
	if err != nil {
		return "", fmt.Errorf("recover: checkpoint write: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return "", fmt.Errorf("recover: checkpoint write: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return "", fmt.Errorf("recover: checkpoint sync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return "", fmt.Errorf("recover: checkpoint close: %w", err)
	}
	if err := os.Rename(tmp.Name(), final); err != nil {
		return "", fmt.Errorf("recover: checkpoint rename: %w", err)
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
			// A crash between CreateTemp and Rename strands the temp
			// file; it can never be read, only accumulate.
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

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
