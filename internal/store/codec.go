// Per-tile compression codecs: store formats v3 and v4.
//
// Every serving bottleneck the benches measure is byte-bound — cold row
// latency is tile IO, effective page-cache capacity is file bytes — so
// the store lets each tile choose how its payload is encoded. The index
// entry (24 bytes, unchanged in size from v2) carries a codec byte per
// tile, and all tile IO funnels through the Codec interface:
//
//   - raw (id 0): the tile's matrix.Marshal bytes, bit-identical to what
//     a v2 store holds. Always available, always correct, the fallback
//     every other codec declines into.
//   - ivarint (id 1): zigzag-delta + uvarint over the integer view of the
//     float64 values, with +Inf as an escape token. Exact — a tile is
//     only encoded this way when every value is a non-negative-zero
//     integer with |v| < 2^53 (so float64 holds it exactly; the dij
//     differential suite proves integer path sums stay in that range),
//     and decode reproduces the identical float64 bits. Tiles with any
//     non-integral, NaN, -Inf or too-large value are stored raw instead.
//     On integer-weight graphs, distance rows are small monotone-ish
//     integers whose deltas fit 1-2 varint bytes: 4-8x denser than raw.
//   - f32 (id 2): lossy float32 downcast, opt-in only. The encoder
//     measures the worst relative error of the round trip and declines
//     the tile (falling back to raw) when it exceeds the codec's bound;
//     the observed maximum is recorded in the tile header so a reader
//     can report it. Never the default: it trades exactness for 2x.
//
// Every codec is row-addressable: row r of an h x w tile is one
// contiguous segment of the payload that decodes on its own, so a row
// read never decodes a whole tile. Raw and f32 rows sit at computed
// offsets (fixed-width values after the header). A v4 ivarint payload
// is the 9-byte codec header, a table of h little-endian uint32 row-end
// offsets (relative to the payload start), then one zigzag-delta stream
// per row whose delta predecessor restarts at 0. A v3 ivarint payload
// (magic 0xC2) is one whole-tile delta stream with no row table; it is
// still decoded, whole, for v3 stores.
//
// A codec's encoded form is only used when it is strictly smaller than
// raw, so "compressed tile no larger than its raw size" is a format
// invariant Open enforces on every v3+ index entry.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"apspark/internal/matrix"
)

// Codec identifiers as stored in the v3+ index entry's codec byte.
const (
	// CodecRaw stores the tile's matrix.Marshal bytes unchanged.
	CodecRaw byte = 0
	// CodecIVarint stores zigzag-delta + uvarint over integer values.
	CodecIVarint byte = 1
	// CodecF32 stores an error-bounded float32 downcast.
	CodecF32 byte = 2

	numCodecs = 3
)

// F32DefaultMaxRelErr is the default per-value relative-error bound of
// the f32 codec: any tile whose float32 round trip would exceed it is
// stored raw instead. float32 rounding is at worst 2^-24 =~ 6e-8
// relative, so the default leaves an order-of-magnitude margin while
// still rejecting values outside float32 range (which round-trip to
// +Inf, an infinite relative error).
const F32DefaultMaxRelErr = 1e-6

// ErrCodecData means an encoded tile's bytes are not a valid stream for
// the codec the index claims (truncated, trailing garbage, or values
// outside the codec's domain). Store reads wrap it in ErrCorruptTile and
// quarantine the tile.
var ErrCodecData = errors.New("store: malformed encoded tile")

// Codec encodes and decodes one tile payload, whole or one row at a
// time. Implementations must be stateless and safe for concurrent use;
// the store holds one instance per codec id for the life of the process.
type Codec interface {
	// ID is the codec byte written into index entries.
	ID() byte
	// Name is the stable CLI/metrics name ("raw", "ivarint", "f32").
	Name() string
	// EncodeTile appends the encoded payload of the dense tile to dst
	// and reports whether the codec accepted the tile. Declining (false)
	// is not an error: it means this tile's values are outside the
	// codec's domain (or would not get smaller) and the caller must fall
	// back to raw. A declined encode may leave partial bytes in dst; the
	// caller re-slices.
	EncodeTile(dst []byte, tile *matrix.Block) ([]byte, bool)
	// DecodeTile decodes a payload produced by EncodeTile into a fresh
	// heap-owned h x w block. Corrupt or truncated input returns an
	// error wrapping ErrCodecData, never panics, and never allocates
	// more than the h*w output the caller's geometry implies.
	DecodeTile(data []byte, h, w int) (*matrix.Block, error)

	// CheckRows validates the framing of a whole h x w payload — its
	// header and, for ivarint, a row-end table that is monotone, starts
	// at the end of the table and ends at len(data) — without decoding a
	// value. A payload that passes can be read row by row: RowIndex and
	// RowSpan locate each row's segment inside it.
	CheckRows(data []byte, h, w int) error
	// RowIndex returns the payload range [lo, hi) a reader must fetch to
	// locate row r: empty for codecs whose rows sit at computed offsets,
	// the row's row-end table entries for ivarint.
	RowIndex(r, h, w int) (lo, hi int)
	// RowSpan returns the payload range [lo, hi) of row r's segment,
	// given the bytes RowIndex named. It trusts them; rowBounds checks
	// the range against the payload before any byte is read.
	RowSpan(index []byte, r, h, w int) (lo, hi int)
	// DecodeRow decodes exactly len(dst) values from seg, one whole row
	// segment. A segment holding fewer or more values, or values outside
	// the codec's domain, returns an error wrapping ErrCodecData.
	DecodeRow(seg []byte, dst []float64) error
}

// codecs is the fixed codec table indexed by codec byte.
var codecs = [numCodecs]Codec{
	rawCodec{},
	ivarintCodec{},
	f32Codec{MaxRelErr: F32DefaultMaxRelErr},
}

// CodecByName resolves a CLI-facing codec name. The empty string means
// raw, so flag defaults compose without special-casing.
func CodecByName(name string) (Codec, error) {
	switch name {
	case "", "raw":
		return codecs[CodecRaw], nil
	case "ivarint":
		return codecs[CodecIVarint], nil
	case "f32":
		return codecs[CodecF32], nil
	}
	return nil, fmt.Errorf("store: unknown codec %q (want raw, ivarint or f32)", name)
}

// CodecNames lists the registered codec names in id order.
func CodecNames() []string {
	out := make([]string, numCodecs)
	for i, c := range codecs {
		out[i] = c.Name()
	}
	return out
}

// codecName maps a codec byte to its name (for metrics labels and error
// messages; unknown bytes never get this far — Open rejects them).
func codecName(id byte) string {
	if int(id) < numCodecs {
		return codecs[id].Name()
	}
	return fmt.Sprintf("codec-%d", id)
}

// encodeTile encodes one tile through c with automatic raw fallback,
// appending to dst[:0]'s backing array. The encoded form is used only
// when the codec accepts the tile AND comes out strictly smaller than
// raw; everything else is stored raw, so a store is never larger than
// its all-raw equivalent. Returns the payload and the codec byte that
// actually applies to it.
func encodeTile(c Codec, tile *matrix.Block, dst []byte) ([]byte, byte) {
	if c != nil && c.ID() != CodecRaw {
		rawSize := matrix.DenseMarshaledSize(tile.R, tile.C)
		if out, ok := c.EncodeTile(dst[:0], tile); ok && int64(len(out)) < rawSize {
			return out, c.ID()
		}
	}
	return tile.AppendMarshal(dst[:0]), CodecRaw
}

// decodeTile dispatches a payload to its codec's decoder.
func decodeTile(id byte, data []byte, h, w int) (*matrix.Block, error) {
	if int(id) >= numCodecs {
		return nil, fmt.Errorf("%w: unknown codec %d", ErrCodecData, id)
	}
	return codecs[id].DecodeTile(data, h, w)
}

// rowBounds locates row r's segment in a payload of length bytes from
// the RowIndex bytes, refusing any range outside the payload — the one
// check that stands between a table entry rotted since first touch and
// an out-of-range read.
func rowBounds(c Codec, index []byte, r, h, w int, length int64) (lo, hi int64, err error) {
	l, u := c.RowSpan(index, r, h, w)
	lo, hi = int64(l), int64(u)
	if lo < 0 || hi < lo || hi > length {
		return 0, 0, fmt.Errorf("%w: row %d segment [%d,%d) outside the %d-byte payload", ErrCodecData, r, lo, hi, length)
	}
	return lo, hi, nil
}

// decodeByRows is DecodeTile for the codecs without a whole-tile form of
// their own: the framing is checked once, then every row decodes from
// its own segment, exactly as the store's row reads do.
func decodeByRows(c Codec, data []byte, h, w int) (*matrix.Block, error) {
	if err := c.CheckRows(data, h, w); err != nil {
		return nil, err
	}
	blk := matrix.New(h, w)
	for r := 0; r < h; r++ {
		ilo, ihi := c.RowIndex(r, h, w)
		lo, hi, err := rowBounds(c, data[ilo:ihi], r, h, w, int64(len(data)))
		if err != nil {
			return nil, err
		}
		if err := c.DecodeRow(data[lo:hi], blk.Data[r*w:(r+1)*w]); err != nil {
			return nil, err
		}
	}
	return blk, nil
}

// rawCodec is the identity codec: payload == matrix.Marshal bytes, the
// exact bytes a v2 store holds.
type rawCodec struct{}

func (rawCodec) ID() byte     { return CodecRaw }
func (rawCodec) Name() string { return "raw" }

func (rawCodec) EncodeTile(dst []byte, tile *matrix.Block) ([]byte, bool) {
	return tile.AppendMarshal(dst), true
}

func (rawCodec) DecodeTile(data []byte, h, w int) (*matrix.Block, error) {
	blk, err := matrix.Unmarshal(data)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCodecData, err)
	}
	if blk.Phantom() || blk.R != h || blk.C != w {
		return nil, fmt.Errorf("%w: raw tile decoded as %dx%d phantom=%v, want dense %dx%d",
			ErrCodecData, blk.R, blk.C, blk.Phantom(), h, w)
	}
	return blk, nil
}

func (rawCodec) CheckRows(data []byte, h, w int) error {
	if int64(len(data)) != matrix.DenseMarshaledSize(h, w) {
		return fmt.Errorf("%w: raw tile %dx%d needs %d bytes, got %d",
			ErrCodecData, h, w, matrix.DenseMarshaledSize(h, w), len(data))
	}
	if err := matrix.ValidateDenseHeader(data, h, w); err != nil {
		return fmt.Errorf("%w: %v", ErrCodecData, err)
	}
	return nil
}

func (rawCodec) RowIndex(r, h, w int) (lo, hi int) { return 0, 0 }

func (rawCodec) RowSpan(_ []byte, r, h, w int) (lo, hi int) {
	lo = matrix.HeaderLen + 8*r*w
	return lo, lo + 8*w
}

func (rawCodec) DecodeRow(seg []byte, dst []float64) error {
	if len(seg) != 8*len(dst) {
		return fmt.Errorf("%w: raw row of %d values needs %d bytes, got %d", ErrCodecData, len(dst), 8*len(dst), len(seg))
	}
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(seg[8*i:]))
	}
	return nil
}

// Encoded-tile header layout, shared by ivarint and f32: one magic byte
// plus the h x w shape, mirroring matrix.Marshal's 9-byte header so a
// misrouted payload is caught before any value is trusted. f32 appends
// the observed max relative error as a float32. The v4 ivarint layout
// (row-end table) has its own magic, so a v3 whole-tile stream is never
// read as one.
const (
	magicIVarintV3 = 0xC2
	magicF32       = 0xC3
	magicIVarint   = 0xC4

	codecHdrLen = 9
	f32HdrLen   = codecHdrLen + 4
)

func putCodecHeader(dst []byte, magic byte, h, w int) []byte {
	dst = append(dst, magic)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(h))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(w))
	return dst
}

func checkCodecHeader(data []byte, magic byte, h, w int) error {
	if len(data) < codecHdrLen {
		return fmt.Errorf("%w: %d bytes, need at least the %d-byte header", ErrCodecData, len(data), codecHdrLen)
	}
	if data[0] != magic {
		return fmt.Errorf("%w: magic %#x, want %#x", ErrCodecData, data[0], magic)
	}
	gh := int(binary.LittleEndian.Uint32(data[1:5]))
	gw := int(binary.LittleEndian.Uint32(data[5:9]))
	if gh != h || gw != w {
		return fmt.Errorf("%w: header says %dx%d, geometry implies %dx%d", ErrCodecData, gh, gw, h, w)
	}
	return nil
}

// maxExactInt bounds the integers float64 represents exactly (2^53):
// ivarint only accepts values strictly inside it, so int64 <-> float64
// conversions on both sides of the codec are lossless by construction.
const maxExactInt = int64(1) << 53

// ivarintCodec: zigzag-delta + uvarint over the integer view of the
// values, one stream per row behind a row-end table. Token 0 escapes
// +Inf (the "no path" value, which has no integer view and does not
// advance the delta predecessor); token k > 0 encodes the signed delta
// unzigzag(k-1) from the previous finite value of the row, or from 0 at
// the row's start. Distances within a row are similar magnitudes, so the
// deltas are small and most tokens fit one or two bytes.
type ivarintCodec struct{}

func (ivarintCodec) ID() byte     { return CodecIVarint }
func (ivarintCodec) Name() string { return "ivarint" }

func (ivarintCodec) EncodeTile(dst []byte, tile *matrix.Block) ([]byte, bool) {
	start := len(dst)
	rawSize := int(matrix.DenseMarshaledSize(tile.R, tile.C))
	dst = putCodecHeader(dst, magicIVarint, tile.R, tile.C)
	table := len(dst)
	for r := 0; r < tile.R; r++ {
		dst = append(dst, 0, 0, 0, 0)
	}
	for r := 0; r < tile.R; r++ {
		prev := int64(0)
		for _, v := range tile.Row(r) {
			if math.IsInf(v, 1) {
				dst = binary.AppendUvarint(dst, 0)
				continue
			}
			// Domain check: exactly representable non-negative-zero
			// integers only. NaN fails v == Trunc(v); -Inf fails the
			// magnitude bound; -0.0 would decode as +0.0 (different
			// bits), so it is declined too — bit-exactness is the
			// codec's contract.
			if v != math.Trunc(v) || v <= float64(-maxExactInt) || v >= float64(maxExactInt) ||
				(v == 0 && math.Signbit(v)) {
				return dst, false
			}
			iv := int64(v)
			d := iv - prev
			dst = binary.AppendUvarint(dst, uint64((d<<1)^(d>>63))+1)
			prev = iv
		}
		// Not getting smaller: store raw. Raw tiles are below 4 GiB
		// whenever this passes, so the uint32 row ends cannot wrap.
		if len(dst)-start >= rawSize || len(dst)-start > math.MaxUint32 {
			return dst, false
		}
		binary.LittleEndian.PutUint32(dst[table+4*r:], uint32(len(dst)-start))
	}
	return dst, true
}

func (c ivarintCodec) DecodeTile(data []byte, h, w int) (*matrix.Block, error) {
	return decodeByRows(c, data, h, w)
}

func (ivarintCodec) CheckRows(data []byte, h, w int) error {
	if err := checkCodecHeader(data, magicIVarint, h, w); err != nil {
		return err
	}
	end := int64(codecHdrLen) + 4*int64(h)
	if int64(len(data)) < end {
		return fmt.Errorf("%w: %d bytes, need the %d-entry row table", ErrCodecData, len(data), h)
	}
	for r := 0; r < h; r++ {
		next := int64(binary.LittleEndian.Uint32(data[codecHdrLen+4*r:]))
		if next < end {
			return fmt.Errorf("%w: row %d ends at %d, before its start %d", ErrCodecData, r, next, end)
		}
		end = next
	}
	if end != int64(len(data)) {
		return fmt.Errorf("%w: row table ends at %d, payload is %d bytes", ErrCodecData, end, len(data))
	}
	return nil
}

func (ivarintCodec) RowIndex(r, h, w int) (lo, hi int) {
	if r == 0 {
		return codecHdrLen, codecHdrLen + 4
	}
	return codecHdrLen + 4*(r-1), codecHdrLen + 4*(r+1)
}

func (ivarintCodec) RowSpan(index []byte, r, h, w int) (lo, hi int) {
	if r == 0 {
		return codecHdrLen + 4*h, int(binary.LittleEndian.Uint32(index))
	}
	return int(binary.LittleEndian.Uint32(index)), int(binary.LittleEndian.Uint32(index[4:]))
}

func (ivarintCodec) DecodeRow(seg []byte, dst []float64) error {
	pos, err := ivarintDecode(seg, dst)
	if err != nil {
		return err
	}
	if pos != len(seg) {
		return fmt.Errorf("%w: %d trailing bytes after %d ivarint values", ErrCodecData, len(seg)-pos, len(dst))
	}
	return nil
}

// ivarintDecode decodes len(dst) tokens of one delta stream from the
// front of data, the predecessor starting at 0, and returns the bytes
// consumed.
func ivarintDecode(data []byte, dst []float64) (int, error) {
	pos := 0
	prev := int64(0)
	for i := range dst {
		tok, n := binary.Uvarint(data[pos:])
		if n <= 0 {
			return 0, fmt.Errorf("%w: ivarint stream ends at value %d of %d", ErrCodecData, i, len(dst))
		}
		pos += n
		if tok == 0 {
			dst[i] = math.Inf(1)
			continue
		}
		u := tok - 1
		prev += int64(u>>1) ^ -int64(u&1)
		if prev <= -maxExactInt || prev >= maxExactInt {
			return 0, fmt.Errorf("%w: ivarint value %d out of exact-integer range", ErrCodecData, prev)
		}
		dst[i] = float64(prev)
	}
	return pos, nil
}

// decodeIVarintV3 decodes a v3 ivarint payload: the codec header, then
// one delta stream over the whole tile in row-major order. It has no row
// table, so v3 stores decode such tiles whole.
func decodeIVarintV3(data []byte, h, w int) (*matrix.Block, error) {
	if err := checkCodecHeader(data, magicIVarintV3, h, w); err != nil {
		return nil, err
	}
	blk := matrix.New(h, w)
	pos, err := ivarintDecode(data[codecHdrLen:], blk.Data)
	if err != nil {
		return nil, err
	}
	if codecHdrLen+pos != len(data) {
		return nil, fmt.Errorf("%w: %d trailing bytes after %d ivarint values", ErrCodecData, len(data)-codecHdrLen-pos, h*w)
	}
	return blk, nil
}

// f32Codec: the values downcast to float32, 2x denser than raw and
// lossy. The encoder measures the worst relative error of the round
// trip and declines the tile when it exceeds MaxRelErr, so every
// f32-coded tile in a store is within the bound; the observed maximum
// is recorded in the tile header.
type f32Codec struct {
	// MaxRelErr bounds |f64(f32(v)) - v| / max(|v|, 1) per value.
	MaxRelErr float64
}

func (f32Codec) ID() byte     { return CodecF32 }
func (f32Codec) Name() string { return "f32" }

func (c f32Codec) EncodeTile(dst []byte, tile *matrix.Block) ([]byte, bool) {
	bound := c.MaxRelErr
	if bound <= 0 {
		bound = F32DefaultMaxRelErr
	}
	// Error pass first: a declined tile must cost no appends. +Inf
	// round-trips exactly; NaN and values past float32 range do not.
	maxRel := 0.0
	for _, v := range tile.Data {
		if math.IsInf(v, 1) {
			continue
		}
		back := float64(float32(v))
		rel := math.Abs(back-v) / math.Max(math.Abs(v), 1)
		if math.IsNaN(rel) || rel > bound {
			return dst, false
		}
		if rel > maxRel {
			maxRel = rel
		}
	}
	dst = putCodecHeader(dst, magicF32, tile.R, tile.C)
	dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(float32(maxRel)))
	for _, v := range tile.Data {
		dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(float32(v)))
	}
	return dst, true
}

func (c f32Codec) DecodeTile(data []byte, h, w int) (*matrix.Block, error) {
	return decodeByRows(c, data, h, w)
}

func (f32Codec) CheckRows(data []byte, h, w int) error {
	if err := checkCodecHeader(data, magicF32, h, w); err != nil {
		return err
	}
	// Overflow-safe exact-length check, same discipline as
	// matrix.Unmarshal: divide the payload instead of multiplying the
	// shape so a forged header cannot alias a short buffer.
	payload := uint64(len(data) - f32HdrLen)
	if len(data) < f32HdrLen || payload%4 != 0 || payload/4 != uint64(h)*uint64(w) {
		return fmt.Errorf("%w: f32 tile %dx%d needs %d payload bytes, got %d",
			ErrCodecData, h, w, 4*uint64(h)*uint64(w), len(data)-f32HdrLen)
	}
	return nil
}

func (f32Codec) RowIndex(r, h, w int) (lo, hi int) { return 0, 0 }

func (f32Codec) RowSpan(_ []byte, r, h, w int) (lo, hi int) {
	lo = f32HdrLen + 4*r*w
	return lo, lo + 4*w
}

func (f32Codec) DecodeRow(seg []byte, dst []float64) error {
	if len(seg) != 4*len(dst) {
		return fmt.Errorf("%w: f32 row of %d values needs %d bytes, got %d", ErrCodecData, len(dst), 4*len(dst), len(seg))
	}
	for i := range dst {
		dst[i] = float64(math.Float32frombits(binary.LittleEndian.Uint32(seg[4*i:])))
	}
	return nil
}

// TileMaxRelErr reads the recorded maximum relative error out of an
// f32 tile payload (0 for every exact codec).
func TileMaxRelErr(codec byte, data []byte) float64 {
	if codec != CodecF32 || len(data) < f32HdrLen {
		return 0
	}
	return float64(math.Float32frombits(binary.LittleEndian.Uint32(data[codecHdrLen:])))
}
