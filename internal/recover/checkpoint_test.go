package recover

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/durable"
	"repro/internal/obs"
	"repro/internal/solver"
)

func sampleCheckpoint() *Checkpoint {
	return &Checkpoint{
		MeshID:    0xfeedc0de,
		P:         4,
		ElemPE:    []int32{0, 1, 2, 3, 0, 1, 3},
		Iter:      42,
		Rho:       3.25e-4,
		X:         []float64{1.5, -2.25, 0, 9.75},
		R:         []float64{0.5, 0.25, -0.125, 8},
		PDir:      []float64{-1, 2, -3, 4},
		FaultPlan: "kill:pe=3,iter=40",
		FaultIter: 17,
	}
}

func mustEncode(t testing.TB, ck *Checkpoint) []byte {
	t.Helper()
	b, err := ck.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// v1Checkpoint lays ck out in the retired version 1 format: magic
// "QSIMCKPT", a version word, a 64-bit payload length, and the CRC-32C,
// ahead of the same payload.
func v1Checkpoint(ck *Checkpoint) []byte {
	payload := ck.appendPayload(nil)
	b := append([]byte(nil), "QSIMCKPT"...)
	b = binary.LittleEndian.AppendUint32(b, 1)
	b = binary.LittleEndian.AppendUint64(b, uint64(len(payload)))
	b = binary.LittleEndian.AppendUint32(b, crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)))
	return append(b, payload...)
}

// TestCheckpointRoundTrip: Encode→Decode is the identity, including
// the solver-state view.
func TestCheckpointRoundTrip(t *testing.T) {
	ck := sampleCheckpoint()
	got, err := Decode(mustEncode(t, ck))
	if err != nil {
		t.Fatal(err)
	}
	if got.MeshID != ck.MeshID || got.P != ck.P || got.Iter != ck.Iter ||
		got.Rho != ck.Rho || got.FaultPlan != ck.FaultPlan || got.FaultIter != ck.FaultIter {
		t.Fatalf("scalar fields: %+v", got)
	}
	for i := range ck.ElemPE {
		if got.ElemPE[i] != ck.ElemPE[i] {
			t.Fatalf("ElemPE[%d] = %d, want %d", i, got.ElemPE[i], ck.ElemPE[i])
		}
	}
	for i := range ck.X {
		if got.X[i] != ck.X[i] || got.R[i] != ck.R[i] || got.PDir[i] != ck.PDir[i] {
			t.Fatalf("vectors differ at %d", i)
		}
	}
	st := got.State()
	if st.Iter != 42 || st.Rho != ck.Rho || len(st.X) != 4 || st.P[3] != 4 {
		t.Fatalf("State() = %+v", st)
	}
}

// TestDecodeRejections pins the strict-decoder contract: truncation,
// corruption, version skew, bad magic, foreign frames, trailing bytes,
// and hostile internal lengths are all refused with errors.
func TestDecodeRejections(t *testing.T) {
	valid := mustEncode(t, sampleCheckpoint())

	t.Run("truncated", func(t *testing.T) {
		// Prefixes cut inside the header matter as much as payload
		// truncation: Latest must treat both as undecodable and fall
		// through to an older snapshot.
		for _, n := range []int{0, 3, 7, durable.HeaderLen - 1, durable.HeaderLen, durable.HeaderLen + 3, len(valid) - 1} {
			if _, err := Decode(valid[:n]); err == nil {
				t.Errorf("accepted a %d-byte prefix", n)
			}
		}
	})
	t.Run("bad-magic", func(t *testing.T) {
		b := append([]byte(nil), valid...)
		b[0] ^= 0xff
		if _, err := Decode(b); err == nil {
			t.Error("accepted corrupted magic")
		}
	})
	t.Run("version-skew", func(t *testing.T) {
		// A version 1 file holds the very same payload; it must be
		// refused, not misparsed.
		if _, err := Decode(v1Checkpoint(sampleCheckpoint())); err == nil {
			t.Error("accepted a version 1 checkpoint")
		}
		b := append([]byte(nil), valid...)
		copy(b, "QCK3")
		if _, err := Decode(b); err == nil {
			t.Error("accepted a future version")
		}
	})
	t.Run("journal-frame", func(t *testing.T) {
		// A well-formed job-journal frame is refused by its magic.
		b, err := durable.AppendFrame(nil, "QJL1", []byte(`{"op":"state","id":"j-1","state":"running"}`), 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Decode(b); err == nil {
			t.Error("accepted a journal frame")
		}
	})
	t.Run("payload-corruption", func(t *testing.T) {
		b := append([]byte(nil), valid...)
		b[durable.HeaderLen+9] ^= 0x10
		if _, err := Decode(b); err == nil {
			t.Error("accepted a payload bit flip (checksum missed it)")
		}
	})
	t.Run("trailing-bytes", func(t *testing.T) {
		if _, err := Decode(append(append([]byte(nil), valid...), 0)); err == nil {
			t.Error("accepted trailing bytes")
		}
	})
	t.Run("hostile-lengths", func(t *testing.T) {
		// A payload claiming 2^60 elements must be refused before any
		// allocation, not after; rebuild the frame so length and CRC are
		// self-consistent and only the element count lies.
		ck := sampleCheckpoint()
		payload := ck.appendPayload(nil)
		binary.LittleEndian.PutUint64(payload[12:], 1<<60)
		b, err := durable.AppendFrame(nil, ckptMagic, payload, maxCkptPayload)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Decode(b); err == nil {
			t.Error("accepted a 2^60-element claim")
		}
		// The scalar count is bounded the same way.
		payload = ck.appendPayload(nil)
		binary.LittleEndian.PutUint64(payload[20+4*len(ck.ElemPE)+16:], 1<<40)
		if b, err = durable.AppendFrame(nil, ckptMagic, payload, maxCkptPayload); err != nil {
			t.Fatal(err)
		}
		if _, err := Decode(b); err == nil {
			t.Error("accepted a 2^40-scalar claim")
		}
	})
}

// TestStoreSaveLatest: snapshots land atomically under ckpt-<iter>.qck,
// Latest returns the newest decodable one, and a corrupted newest file
// degrades to the previous snapshot instead of failing the resume.
func TestStoreSaveLatest(t *testing.T) {
	dir := t.TempDir()
	s, err := NewStore(filepath.Join(dir, "ck"))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Latest(); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("empty store Latest: %v", err)
	}
	ck := sampleCheckpoint()
	for _, iter := range []int64{5, 10, 15} {
		ck.Iter = iter
		if _, err := s.Save(ck); err != nil {
			t.Fatal(err)
		}
	}
	got, path, err := s.Latest()
	if err != nil {
		t.Fatal(err)
	}
	if got.Iter != 15 || filepath.Base(path) != "ckpt-000000015.qck" {
		t.Fatalf("Latest = iter %d at %s", got.Iter, path)
	}
	// Corrupt the newest file; Latest must fall back to iter 10.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, _, err = s.Latest()
	if err != nil {
		t.Fatal(err)
	}
	if got.Iter != 10 {
		t.Fatalf("fallback Latest = iter %d, want 10", got.Iter)
	}
	// A file truncated *inside the header* (a crash mid-write on a
	// filesystem without atomic rename, or torn storage) must degrade
	// the same way — skipped, not fatal.
	if err := os.WriteFile(path, data[:durable.HeaderLen-4], 0o644); err != nil {
		t.Fatal(err)
	}
	got, _, err = s.Latest()
	if err != nil {
		t.Fatal(err)
	}
	if got.Iter != 10 {
		t.Fatalf("truncated-header fallback Latest = iter %d, want 10", got.Iter)
	}
	// A version 1 file left by an older build is newer by name but
	// undecodable, so it is skipped too.
	ck.Iter = 20
	if err := os.WriteFile(filepath.Join(s.Dir(), "ckpt-000000020.qck"), v1Checkpoint(ck), 0o644); err != nil {
		t.Fatal(err)
	}
	if got, _, err = s.Latest(); err != nil || got.Iter != 10 {
		t.Fatalf("Latest past a version 1 file = %+v, %v; want iter 10", got, err)
	}
	// No temp litter after successful saves.
	entries, err := os.ReadDir(s.Dir())
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if filepath.Ext(e.Name()) == ".tmp" {
			t.Fatalf("temp file %s left behind", e.Name())
		}
	}
}

// TestStorePruneAndSizeBytes: Prune keeps the newest files, sweeps
// stranded temp litter, and SizeBytes tracks the bytes a retention
// budget charges against.
func TestStorePruneAndSizeBytes(t *testing.T) {
	prevObs := obs.Enabled()
	obs.SetEnabled(true)
	t.Cleanup(func() { obs.SetEnabled(prevObs) })

	s, err := NewStore(filepath.Join(t.TempDir(), "ck"))
	if err != nil {
		t.Fatal(err)
	}
	ck := sampleCheckpoint()
	for _, iter := range []int64{1, 2, 3, 4, 5} {
		ck.Iter = iter
		if _, err := s.Save(ck); err != nil {
			t.Fatal(err)
		}
	}
	// A stranded temp file from a crash mid-save.
	if err := os.WriteFile(filepath.Join(s.Dir(), "ckpt-junk.tmp"), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	before, err := s.SizeBytes()
	if err != nil {
		t.Fatal(err)
	}
	if before <= 0 {
		t.Fatalf("SizeBytes = %d with 5 checkpoints on disk", before)
	}

	pruned0 := obs.GetCounter("recover.checkpoint.pruned").Value()
	n, err := s.Prune(2)
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 { // three old checkpoints plus the temp file
		t.Fatalf("Prune(2) removed %d files, want 4", n)
	}
	if d := obs.GetCounter("recover.checkpoint.pruned").Value() - pruned0; d != 4 {
		t.Fatalf("recover.checkpoint.pruned advanced by %d, want 4", d)
	}
	after, err := s.SizeBytes()
	if err != nil {
		t.Fatal(err)
	}
	if after >= before {
		t.Fatalf("SizeBytes did not shrink: %d -> %d", before, after)
	}
	// The newest checkpoint survives and still loads.
	got, _, err := s.Latest()
	if err != nil {
		t.Fatal(err)
	}
	if got.Iter != 5 {
		t.Fatalf("Latest after prune = iter %d, want 5", got.Iter)
	}
	entries, err := os.ReadDir(s.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("%d files after Prune(2), want 2", len(entries))
	}
	// Pruning below one always keeps the newest file.
	if _, err := s.Prune(0); err != nil {
		t.Fatal(err)
	}
	if got, _, err = s.Latest(); err != nil || got.Iter != 5 {
		t.Fatalf("Prune(0) ate the newest checkpoint: iter %v err %v", got, err)
	}
}

// TestCheckpointSolverStateRoundTrip: a State captured by the solver
// survives the disk round trip bit for bit — the property the
// bit-identical resume rests on.
func TestCheckpointSolverStateRoundTrip(t *testing.T) {
	st := &solver.State{
		Iter: 7,
		X:    []float64{1.0000000000000002, -0, 3e-308},
		R:    []float64{2.5, -7.25, 1.125},
		P:    []float64{0.1, 0.2, 0.3},
		Rho:  1.7976931348623157e308,
	}
	ck := &Checkpoint{P: 1, ElemPE: []int32{0}, Iter: int64(st.Iter), Rho: st.Rho, X: st.X, R: st.R, PDir: st.P}
	got, err := Decode(mustEncode(t, ck))
	if err != nil {
		t.Fatal(err)
	}
	back := got.State()
	if back.Iter != st.Iter || back.Rho != st.Rho {
		t.Fatalf("State round trip: %+v", back)
	}
	for i := range st.X {
		if back.X[i] != st.X[i] || back.R[i] != st.R[i] || back.P[i] != st.P[i] {
			t.Fatalf("vector bits differ at %d", i)
		}
	}
}

// FuzzDecodeCheckpoint: random mutations of a valid snapshot must
// never crash or hang the decoder — only decode cleanly or error.
func FuzzDecodeCheckpoint(f *testing.F) {
	valid := mustEncode(f, sampleCheckpoint())
	f.Add(valid)
	f.Add([]byte(ckptMagic))
	f.Add([]byte{})
	// A header with no payload, and the retired version 1 layout.
	f.Add(valid[:durable.HeaderLen])
	f.Add(v1Checkpoint(sampleCheckpoint()))
	f.Fuzz(func(t *testing.T, data []byte) {
		ck, err := Decode(data)
		if err == nil && ck == nil {
			t.Fatal("nil checkpoint without error")
		}
		if err == nil {
			// A decoded checkpoint must re-encode decodable.
			if _, err := Decode(mustEncode(t, ck)); err != nil {
				t.Fatalf("re-encode of accepted checkpoint rejected: %v", err)
			}
		}
	})
}
