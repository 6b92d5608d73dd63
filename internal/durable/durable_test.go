package durable

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

const (
	testMagic = "TST1"
	testLimit = 64
)

func mustFrame(t testing.TB, dst []byte, payload string) []byte {
	t.Helper()
	b, err := AppendFrame(dst, testMagic, []byte(payload), testLimit)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestFrameStream: frames appended back to back decode in order, each
// reporting the bytes it occupies, and an empty payload is a frame.
func TestFrameStream(t *testing.T) {
	want := []string{"first", "", "the third payload"}
	var stream []byte
	for _, p := range want {
		stream = mustFrame(t, stream, p)
	}
	for i, p := range want {
		payload, n, err := NextFrame(stream, testMagic, testLimit)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if string(payload) != p || n != HeaderLen+len(p) {
			t.Fatalf("frame %d: payload %q n %d, want %q n %d", i, payload, n, p, HeaderLen+len(p))
		}
		stream = stream[n:]
	}
	if len(stream) != 0 {
		t.Fatalf("%d bytes left after the last frame", len(stream))
	}
}

// TestNextFrameRejects: every short prefix is torn; corruption of the
// magic, the length, or the payload is a plain error, never torn.
func TestNextFrameRejects(t *testing.T) {
	whole := mustFrame(t, nil, "payload bytes")
	for n := 0; n < len(whole); n++ {
		if _, _, err := NextFrame(whole[:n], testMagic, testLimit); !errors.Is(err, ErrTorn) {
			t.Errorf("%d-byte prefix: err = %v, want ErrTorn", n, err)
		}
	}
	corrupt := func(name string, at int, b byte) {
		data := append([]byte(nil), whole...)
		data[at] = b
		if _, _, err := NextFrame(data, testMagic, testLimit); err == nil || errors.Is(err, ErrTorn) {
			t.Errorf("%s: err = %v, want a corruption error", name, err)
		}
	}
	corrupt("bad magic", 0, 'X')
	corrupt("length over the limit", 4, testLimit+1)
	corrupt("payload bit flip", HeaderLen+3, whole[HeaderLen+3]^0x01)
	corrupt("checksum bit flip", 8, whole[8]^0x80)
	if _, _, err := NextFrame(whole, "OTHR", testLimit); err == nil || errors.Is(err, ErrTorn) {
		t.Errorf("foreign magic: err = %v, want a corruption error", err)
	}
	if _, err := AppendFrame(nil, testMagic, make([]byte, testLimit+1), testLimit); err == nil {
		t.Error("AppendFrame wrote a payload over the limit")
	}
}

// TestWriteFile: the file is created, then replaced whole, and no
// temporary file is left behind; a missing directory is an error.
func TestWriteFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.bin")
	for _, content := range []string{"a long first version", "v2"} {
		if err := WriteFile(path, []byte(content)); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != content {
			t.Fatalf("read back %q, want %q", got, content)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory holds %d entries after two writes, want 1", len(entries))
	}
	if err := WriteFile(filepath.Join(dir, "missing", "f"), nil); err == nil {
		t.Fatal("WriteFile into a missing directory succeeded")
	}
}

// FuzzFrame holds the decoder to its contract on hostile bytes: no
// panic, a consumed count within the input, and a frame it accepts
// re-encodes to exactly the bytes it consumed.
func FuzzFrame(f *testing.F) {
	whole := mustFrame(f, nil, "seed payload")
	f.Add(whole)
	f.Add(whole[:HeaderLen+2])
	f.Add([]byte(testMagic + "\xff\xff\xff\xff\x00\x00\x00\x00"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		payload, n, err := NextFrame(data, testMagic, testLimit)
		if err != nil {
			if payload != nil || n != 0 {
				t.Fatalf("error path leaked payload=%q n=%d", payload, n)
			}
			return
		}
		if n < HeaderLen || n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		again, err := AppendFrame(nil, testMagic, payload, testLimit)
		if err != nil {
			t.Fatalf("re-encoding an accepted payload: %v", err)
		}
		if !bytes.Equal(again, data[:n]) {
			t.Fatalf("re-encoded frame %x, accepted %x", again, data[:n])
		}
	})
}
