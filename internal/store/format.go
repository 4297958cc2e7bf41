package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"

	"sdtw/internal/vfs"
)

const (
	hotMagic = "SDTWHOT1"
	valMagic = "SDTWVAL1"
)

// hotHeader encodes the per-segment config header: magic, version, and
// the config fingerprint (so a segment file found on its own still
// names the configuration it was written under).
func (st *Store) hotHeader() []byte {
	fp := []byte(st.man.Fingerprint)
	buf := make([]byte, 0, len(hotMagic)+8+len(fp)+4)
	buf = append(buf, hotMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, formatVersion)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(st.man.SketchWidth))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(fp)))
	buf = append(buf, fp...)
	return buf
}

// errTornHeader fails the frames of a hot file that stops inside its
// header: crash residue when active, corruption when sealed.
var errTornHeader = errors.New("torn header")

// hotFrames checks hot file data's header against the manifest
// configuration (a differing byte is corruption) and returns a reader
// over the record frames after it.
func (st *Store) hotFrames(seg int, data []byte) (frameReader, error) {
	header := st.hotHeader()
	n := min(len(data), len(header))
	if string(data[:n]) != string(header[:n]) {
		return frameReader{}, fmt.Errorf("store: segment %d header does not match the manifest configuration: %w", seg, ErrCorruptSegment)
	}
	fr := frameReader{data: data, off: n, sketchW: st.man.SketchWidth}
	if n < len(header) {
		fr.err = errTornHeader
	}
	return fr, nil
}

// frameReader walks the record frames of a hot file: each is a
// little-endian uint32 payload length, the payload (encodeRecord) and
// its CRC-32. off is just past the n frames read so far; err says why
// the frame at off failed, and stays nil through a clean end.
type frameReader struct {
	data    []byte
	sketchW int
	off, n  int
	err     error
}

// next returns the next frame's record, or nil at the end or at the
// first bad frame.
func (r *frameReader) next() *Record {
	rest := r.data[r.off:]
	if r.err != nil || len(rest) == 0 {
		return nil
	}
	if len(rest) < 4 {
		r.err = errors.New("torn record length")
		return nil
	}
	plen := int(binary.LittleEndian.Uint32(rest))
	if plen < 0 || len(rest) < 4+plen+4 {
		r.err = errors.New("torn record")
		return nil
	}
	payload := rest[4 : 4+plen]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(rest[4+plen:]) {
		r.err = fmt.Errorf("record %d fails its checksum", r.n)
		return nil
	}
	rec, err := decodeRecord(payload, r.sketchW)
	if err != nil {
		r.err = fmt.Errorf("record %d: %v", r.n, err)
		return nil
	}
	r.off += 4 + plen + 4
	r.n++
	return rec
}

// encodeFrame serialises rec as one hot-file frame; its values live in
// the value file at valOff.
func encodeFrame(rec *Record, valOff int64) []byte {
	w, n := len(rec.Sketch.Upper), len(rec.Envelope.Upper)
	// The capacity is the frame's exact size: length, payload, CRC.
	frame := make([]byte, 4, 4+(4+len(rec.ID)+8+8+4+16+16*w+8+16*n+8)+4)
	frame = encodeRecord(frame, rec, valOff)
	binary.LittleEndian.PutUint32(frame, uint32(len(frame)-4))
	return binary.LittleEndian.AppendUint32(frame, crc32.ChecksumIEEE(frame[4:]))
}

// encodeRecord appends the hot payload of rec to buf.
func encodeRecord(buf []byte, rec *Record, valOff int64) []byte {
	n := len(rec.Envelope.Upper)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(rec.ID)))
	buf = append(buf, rec.ID...)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(int64(rec.Label)))
	buf = binary.LittleEndian.AppendUint64(buf, rec.Seq)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(rec.N))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(rec.First))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(rec.Last))
	buf = appendFloats(buf, rec.Sketch.Upper)
	buf = appendFloats(buf, rec.Sketch.Lower)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(rec.Envelope.Radius))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(n))
	buf = appendFloats(buf, rec.Envelope.Upper)
	buf = appendFloats(buf, rec.Envelope.Lower)
	return binary.LittleEndian.AppendUint64(buf, uint64(valOff))
}

func appendFloats(buf []byte, vs []float64) []byte {
	for _, v := range vs {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	return buf
}

// errShortPayload reports a hot payload that ends before its fields do.
var errShortPayload = errors.New("short payload")

// decodeRecord parses a hot payload. sketchW is the store-wide sketch
// width every record must carry.
func decodeRecord(p []byte, sketchW int) (*Record, error) {
	c := payloadReader{p: p}
	rec := &Record{}
	rec.ID = string(c.bytes(int(c.u32())))
	rec.Label = int(int64(c.u64()))
	rec.Seq = c.u64()
	rec.N = int(c.u32())
	rec.First = math.Float64frombits(c.u64())
	rec.Last = math.Float64frombits(c.u64())
	rec.Sketch.Upper = c.floats(sketchW)
	rec.Sketch.Lower = c.floats(sketchW)
	rec.Envelope.Radius = int(int32(c.u32()))
	envN := int(c.u32())
	if c.short {
		return nil, errShortPayload
	}
	if envN != rec.N {
		return nil, fmt.Errorf("envelope length %d != series length %d", envN, rec.N)
	}
	rec.Envelope.Upper = c.floats(rec.N)
	rec.Envelope.Lower = c.floats(rec.N)
	rec.off = int64(c.u64())
	switch {
	case c.short:
		return nil, errShortPayload
	case len(c.p) != 0:
		return nil, errors.New("trailing bytes in record payload")
	}
	return rec, nil
}

// payloadReader consumes a hot payload field by field. A read past the
// end sets short and yields zero values from then on.
type payloadReader struct {
	p     []byte
	short bool
}

func (c *payloadReader) bytes(n int) []byte {
	if c.short || n > len(c.p) {
		c.short = true
		return nil
	}
	b := c.p[:n]
	c.p = c.p[n:]
	return b
}

func (c *payloadReader) u32() uint32 {
	if b := c.bytes(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

func (c *payloadReader) u64() uint64 {
	if b := c.bytes(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

func (c *payloadReader) floats(n int) []float64 {
	if b := c.bytes(8 * n); b != nil {
		return decodeFloats(b)
	}
	return nil
}

// decodeFloats is appendFloats' inverse.
func decodeFloats(b []byte) []float64 {
	out := make([]float64, len(b)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out
}

// encodeValBlock serialises vals as one value block: a little-endian
// uint32 count, the values' float64 bits, and a CRC-32 over the bits.
func encodeValBlock(vals []float64) []byte {
	buf := make([]byte, 4, valBlockLen(len(vals)))
	binary.LittleEndian.PutUint32(buf, uint32(len(vals)))
	buf = appendFloats(buf, vals)
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf[4:]))
}

// valBlockLen is the length of the value block of n values.
func valBlockLen(n int) int64 { return 4 + 8*int64(n) + 4 }

// readValBlock reads the value block at off through f in one read, as
// the hot record sizes it, and checks it: its count must be n and its CRC
// must match. It returns the values' bytes; every failure wraps
// ErrCorruptSegment.
func readValBlock(f vfs.File, off int64, n int) ([]byte, error) {
	buf := make([]byte, valBlockLen(n))
	if _, err := f.ReadAt(buf, off); err != nil {
		return nil, fmt.Errorf("reading: %v: %w", err, ErrCorruptSegment)
	}
	if got := int(binary.LittleEndian.Uint32(buf)); got != n {
		return nil, fmt.Errorf("holds %d values, hot record says %d: %w", got, n, ErrCorruptSegment)
	}
	body := buf[4 : 4+8*n]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(buf[4+8*n:]) {
		return nil, fmt.Errorf("fails its checksum: %w", ErrCorruptSegment)
	}
	return body, nil
}

// openValFile opens the value file at path for reading and reports
// whether it starts with an intact magic. The caller closes f.
func openValFile(fsys vfs.FS, path string) (f vfs.File, magicOK bool, err error) {
	if f, err = fsys.Open(path); err != nil {
		return nil, false, err
	}
	var magic [len(valMagic)]byte
	_, err = f.ReadAt(magic[:], 0)
	return f, err == nil && string(magic[:]) == valMagic, nil
}
