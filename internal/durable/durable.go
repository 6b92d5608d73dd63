// Package durable owns the on-disk decisions shared by every record
// that must survive a crash: the checksummed frame a record is stored
// in, and the atomic replacement of a whole file. A frame is
//
//	magic [4]byte | payload length u32 LE | CRC-32C u32 LE | payload
//
// The magic names the format and its version; each caller passes its
// own, with its own payload bound, so a frame of one format is refused
// by the decoder of another.
package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
)

// HeaderLen is the frame header's size: magic, length, checksum.
const HeaderLen = 4 + 4 + 4

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrTorn marks a frame cut short of its header or declared payload,
// the normal artifact of a crash mid-write. Corruption (bad magic, a
// length over the bound, a checksum mismatch) is reported otherwise.
var ErrTorn = errors.New("durable: frame torn")

// AppendFrame appends payload, framed under the 4-byte magic, to dst.
// A payload longer than limit is refused, so nothing is written that
// NextFrame with the same bound would reject.
func AppendFrame(dst []byte, magic string, payload []byte, limit int) ([]byte, error) {
	if len(payload) > limit {
		return dst, fmt.Errorf("durable: %s payload of %d bytes exceeds %d", magic, len(payload), limit)
	}
	dst = append(dst, magic...)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.Checksum(payload, castagnoli))
	return append(dst, payload...), nil
}

// NextFrame decodes the frame at the head of data, returning its
// payload (aliasing data) and the bytes the frame occupies. It never
// reads past the declared payload and never panics on hostile input.
func NextFrame(data []byte, magic string, limit int) (payload []byte, n int, err error) {
	if len(data) < HeaderLen {
		return nil, 0, ErrTorn
	}
	if string(data[:4]) != magic {
		return nil, 0, fmt.Errorf("durable: bad magic %q, want %q", data[:4], magic)
	}
	plen := uint64(binary.LittleEndian.Uint32(data[4:]))
	if plen > uint64(limit) {
		return nil, 0, fmt.Errorf("durable: %s frame claims %d bytes, bound is %d", magic, plen, limit)
	}
	if uint64(len(data)-HeaderLen) < plen {
		return nil, 0, ErrTorn
	}
	n = HeaderLen + int(plen)
	if crc32.Checksum(data[HeaderLen:n], castagnoli) != binary.LittleEndian.Uint32(data[8:]) {
		return nil, 0, fmt.Errorf("durable: %s frame checksum mismatch", magic)
	}
	return data[HeaderLen:n], n, nil
}

// WriteFile atomically replaces path with data: a temporary file in the
// same directory (suffix .tmp, so a sweep can find one a crash strands)
// is written, synced, closed and renamed over path, and the directory
// is synced so the rename itself survives a power failure.
func WriteFile(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".*.tmp")
	if err != nil {
		return fmt.Errorf("durable: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	_, err = tmp.Write(data)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		return fmt.Errorf("durable: %w", err)
	}
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("durable: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("durable: %w", err)
	}
	return nil
}
