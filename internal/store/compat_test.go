package store

import (
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"testing"

	"apspark/internal/matrix"
)

// writeV1Store synthesizes a version-1 store file — 16-byte index entries,
// no checksums — exactly as the previous format revision wrote it, so
// backward compatibility is pinned against real v1 bytes rather than
// against this build's writer.
func writeV1Store(t *testing.T, path string, m *matrix.Block, blockSize int) {
	t.Helper()
	n := m.R
	if blockSize > n {
		blockSize = n
	}
	q := (n + blockSize - 1) / blockSize
	hdr := make([]byte, 0, fileHdrLen+q*q*idxEntryLenV1)
	hdr = append(hdr, magic...)
	hdr = binary.LittleEndian.AppendUint32(hdr, versionV1)
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(n))
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(blockSize))
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(q))
	off := int64(fileHdrLen + q*q*idxEntryLenV1)
	var tiles []byte
	for bi := 0; bi < q; bi++ {
		h := tileEdge(n, blockSize, bi)
		for bj := 0; bj < q; bj++ {
			w := tileEdge(n, blockSize, bj)
			tile := matrix.New(h, w)
			if err := m.ExtractInto(tile, bi*blockSize, bj*blockSize); err != nil {
				t.Fatal(err)
			}
			buf := tile.AppendMarshal(nil)
			hdr = binary.LittleEndian.AppendUint64(hdr, uint64(off))
			hdr = binary.LittleEndian.AppendUint64(hdr, uint64(len(buf)))
			tiles = append(tiles, buf...)
			off += int64(len(buf))
		}
	}
	if err := os.WriteFile(path, append(hdr, tiles...), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestV1StoreOpensAndServes: the previous on-disk format still opens and
// serves unchanged through both the tile and the row-span read paths.
func TestV1StoreOpensAndServes(t *testing.T) {
	n := 25
	m := testMatrix(n, 31)
	path := filepath.Join(t.TempDir(), "v1.apsp")
	writeV1Store(t, path, m, 8)

	for name, opts := range map[string]Options{
		"tile-path": {TileCacheBytes: 1 << 20},
		"span-path": {RowCacheBytes: 1 << 20},
		"uncached":  {},
	} {
		t.Run(name, func(t *testing.T) {
			s, err := OpenWithOptions(path, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if s.Version() != versionV1 || s.Checksummed() {
				t.Fatalf("version = %d checksummed = %v, want v1 unchecksummed", s.Version(), s.Checksummed())
			}
			ctx := context.Background()
			for i := 0; i < n; i++ {
				row, err := s.Row(ctx, i)
				if err != nil {
					t.Fatal(err)
				}
				for j := range row {
					if row[j] != m.At(i, j) {
						t.Fatalf("v1 row %d col %d = %v, want %v", i, j, row[j], m.At(i, j))
					}
				}
			}
		})
	}
}

// writeV2Store synthesizes a version-2 store file — 24-byte index
// entries carrying CRC32-C over raw tile bytes, no codec byte — exactly
// as the pre-codec format revision wrote it, pinning v2 compatibility
// against real v2 bytes rather than against this build's writer.
func writeV2Store(t *testing.T, path string, m *matrix.Block, blockSize int) {
	t.Helper()
	n := m.R
	if blockSize > n {
		blockSize = n
	}
	q := (n + blockSize - 1) / blockSize
	hdr := make([]byte, 0, fileHdrLen+q*q*idxEntryLenV2)
	hdr = append(hdr, magic...)
	hdr = binary.LittleEndian.AppendUint32(hdr, versionV2)
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(n))
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(blockSize))
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(q))
	off := int64(fileHdrLen + q*q*idxEntryLenV2)
	var tiles []byte
	for bi := 0; bi < q; bi++ {
		h := tileEdge(n, blockSize, bi)
		for bj := 0; bj < q; bj++ {
			w := tileEdge(n, blockSize, bj)
			tile := matrix.New(h, w)
			if err := m.ExtractInto(tile, bi*blockSize, bj*blockSize); err != nil {
				t.Fatal(err)
			}
			buf := tile.AppendMarshal(nil)
			hdr = binary.LittleEndian.AppendUint64(hdr, uint64(off))
			hdr = binary.LittleEndian.AppendUint64(hdr, uint64(len(buf)))
			hdr = binary.LittleEndian.AppendUint32(hdr, crc32.Checksum(buf, castagnoli))
			hdr = binary.LittleEndian.AppendUint32(hdr, 0)
			tiles = append(tiles, buf...)
			off += int64(len(buf))
		}
	}
	if err := os.WriteFile(path, append(hdr, tiles...), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestV2StoreOpensAndServes: the immediately-previous format (checksummed,
// uncompressed) still opens checksummed, reads as all-raw, and serves
// identical distances through every read path.
func TestV2StoreOpensAndServes(t *testing.T) {
	n := 25
	m := testMatrix(n, 31)
	path := filepath.Join(t.TempDir(), "v2.apsp")
	writeV2Store(t, path, m, 8)

	for name, opts := range map[string]Options{
		"tile-path": {TileCacheBytes: 1 << 20},
		"span-path": {RowCacheBytes: 1 << 20},
		"uncached":  {},
	} {
		t.Run(name, func(t *testing.T) {
			s, err := OpenWithOptions(path, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if s.Version() != versionV2 || !s.Checksummed() {
				t.Fatalf("version = %d checksummed = %v, want v2 checksummed", s.Version(), s.Checksummed())
			}
			if s.CodecName() != "raw" || s.CodecRatio() != 1 {
				t.Fatalf("v2 store reports codec %q ratio %v, want raw at ratio 1", s.CodecName(), s.CodecRatio())
			}
			ctx := context.Background()
			for i := 0; i < n; i++ {
				row, err := s.Row(ctx, i)
				if err != nil {
					t.Fatal(err)
				}
				for j := range row {
					if row[j] != m.At(i, j) {
						t.Fatalf("v2 row %d col %d = %v, want %v", i, j, row[j], m.At(i, j))
					}
				}
			}
		})
	}
}

// encodeIVarintV3 hand-encodes a v3 ivarint payload: the 0xC2 codec
// header, then one zigzag-delta uvarint stream over the whole tile in
// row-major order (token 0 = +Inf, which leaves the predecessor alone) —
// the layout v3 writers produced, independent of this build's
// encoder.
func encodeIVarintV3(tile *matrix.Block) []byte {
	buf := []byte{magicIVarintV3}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(tile.R))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(tile.C))
	prev := int64(0)
	for _, v := range tile.Data {
		if math.IsInf(v, 1) {
			buf = binary.AppendUvarint(buf, 0)
			continue
		}
		d := int64(v) - prev
		buf = binary.AppendUvarint(buf, uint64((d<<1)^(d>>63))+1)
		prev = int64(v)
	}
	return buf
}

// writeV3Store synthesizes a version-3 store file from hand-assembled
// bytes: 24-byte index entries with a codec byte, contiguous payloads,
// whole-tile ivarint tiles — and a raw tile wherever the tile holds a
// non-integer, as the v3 writer's fallback did.
func writeV3Store(t *testing.T, path string, m *matrix.Block, blockSize int) {
	t.Helper()
	n := m.R
	q := (n + blockSize - 1) / blockSize
	hdr := make([]byte, 0, fileHdrLen+q*q*idxEntryLenV2)
	hdr = append(hdr, magic...)
	hdr = binary.LittleEndian.AppendUint32(hdr, versionV3)
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(n))
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(blockSize))
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(q))
	off := int64(fileHdrLen + q*q*idxEntryLenV2)
	var tiles []byte
	for bi := 0; bi < q; bi++ {
		for bj := 0; bj < q; bj++ {
			tile := matrix.New(tileEdge(n, blockSize, bi), tileEdge(n, blockSize, bj))
			if err := m.ExtractInto(tile, bi*blockSize, bj*blockSize); err != nil {
				t.Fatal(err)
			}
			buf, codec := encodeIVarintV3(tile), CodecIVarint
			for _, v := range tile.Data {
				if v != math.Trunc(v) {
					buf, codec = tile.AppendMarshal(nil), CodecRaw
					break
				}
			}
			hdr = binary.LittleEndian.AppendUint64(hdr, uint64(off))
			hdr = binary.LittleEndian.AppendUint64(hdr, uint64(len(buf)))
			hdr = binary.LittleEndian.AppendUint32(hdr, crc32.Checksum(buf, castagnoli))
			hdr = append(hdr, codec, 0, 0, 0)
			tiles = append(tiles, buf...)
			off += int64(len(buf))
		}
	}
	if err := os.WriteFile(path, append(hdr, tiles...), 0o644); err != nil {
		t.Fatal(err)
	}
}

// v3Matrix is an integer matrix with one fractional value, so a v3
// fixture holds whole-tile ivarint tiles and one raw tile.
func v3Matrix(n int) *matrix.Block {
	m := intMatrix(n, 37)
	m.Set(n-1, n-2, 2.5)
	return m
}

// TestV3StoreOpensAndServes: a hand-assembled v3 store with whole-tile
// ivarint tiles still opens as v3 and serves bit-identical distances
// through every read path — its ivarint tiles decode whole, the only
// tiles that still do.
func TestV3StoreOpensAndServes(t *testing.T) {
	n, bs := 27, 8
	m := v3Matrix(n)
	path := filepath.Join(t.TempDir(), "v3.apsp")
	writeV3Store(t, path, m, bs)

	for name, opts := range map[string]Options{
		"tile-path": {TileCacheBytes: 1 << 20},
		"span-path": {RowCacheBytes: 1 << 20},
		"uncached":  {},
	} {
		t.Run(name, func(t *testing.T) {
			s, err := OpenWithOptions(path, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if s.Version() != versionV3 || !s.Checksummed() {
				t.Fatalf("version = %d checksummed = %v, want v3 checksummed", s.Version(), s.Checksummed())
			}
			if tiles := s.CodecTiles(); tiles["ivarint"] != 15 || tiles["raw"] != 1 {
				t.Fatalf("codec census %v, want 15 ivarint + 1 raw", tiles)
			}
			ctx := context.Background()
			for i := 0; i < n; i++ {
				row, err := s.Row(ctx, i)
				if err != nil {
					t.Fatal(err)
				}
				for j := range row {
					if math.Float64bits(row[j]) != math.Float64bits(m.At(i, j)) {
						t.Fatalf("v3 row %d col %d = %v, want bit-identical %v", i, j, row[j], m.At(i, j))
					}
				}
				d, err := s.Dist(ctx, i, (i*5)%n)
				if err != nil || math.Float64bits(d) != math.Float64bits(m.At(i, (i*5)%n)) {
					t.Fatalf("v3 dist(%d,%d) = %v (err %v), want %v", i, (i*5)%n, d, err, m.At(i, (i*5)%n))
				}
			}
			if s.DecodeHistogram("ivarint").Snapshot().Count() == 0 {
				t.Fatal("v3 ivarint tiles served without a whole-tile decode")
			}
		})
	}
}

// TestV3StorePanelCopyReencodes: raw-panel copies out of a v3 store land
// in this build's encoding — a v3 ivarint parent copied panel by panel
// into a new writer yields exactly the v4 store a fresh write of the
// same matrix produces, so a generation lineage carries across the
// format change.
func TestV3StorePanelCopyReencodes(t *testing.T) {
	n, bs := 27, 8
	m := v3Matrix(n)
	dir := t.TempDir()
	src := filepath.Join(dir, "v3.apsp")
	writeV3Store(t, src, m, bs)
	s, err := Open(src, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, _ := CodecByName("ivarint")
	copied := filepath.Join(dir, "copied.apsp")
	w, err := NewPanelWriterWithOptions(copied, n, bs, PanelWriterOptions{Codec: s.PreferredCodec()})
	if err != nil {
		t.Fatal(err)
	}
	var raw []byte
	var metas []TileMeta
	for bi := 0; bi < s.TilesPerSide(); bi++ {
		if raw, metas, err = s.ReadPanelRaw(bi, raw); err != nil {
			t.Fatal(err)
		}
		if err := w.WriteRawPanel(raw, metas); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	fresh := filepath.Join(dir, "fresh.apsp")
	if err := WriteWithCodec(fresh, m, bs, c); err != nil {
		t.Fatal(err)
	}
	a, _ := os.ReadFile(copied)
	b, _ := os.ReadFile(fresh)
	if string(a) != string(b) {
		t.Fatalf("v3 panel copy (%d bytes) differs from a fresh v4 write (%d bytes)", len(a), len(b))
	}
}

// TestV2BitFlipStillQuarantines: v2 CRC verification survives the codec
// refactor — a flipped payload byte is caught and the tile quarantined.
func TestV2BitFlipStillQuarantines(t *testing.T) {
	n := 12
	m := testMatrix(n, 17)
	path := filepath.Join(t.TempDir(), "v2.apsp")
	writeV2Store(t, path, m, 4)
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	q := (n + 3) / 4
	buf[fileHdrLen+q*q*idxEntryLenV2+20] ^= 0x01 // inside tile (0,0) payload
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(path, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Tile(context.Background(), 0, 0); !errors.Is(err, ErrCorruptTile) {
		t.Fatalf("v2 flipped tile byte: err = %v, want ErrCorruptTile", err)
	}
	if s.Quarantined() != 1 {
		t.Fatalf("quarantined = %d, want 1", s.Quarantined())
	}
}

// TestV1CorruptHeaderStillRejected: v1 has no checksums, but a smashed
// tile header is still caught by the shape validation on both paths.
func TestV1CorruptHeaderStillRejected(t *testing.T) {
	n := 12
	m := testMatrix(n, 17)
	path := filepath.Join(t.TempDir(), "v1.apsp")
	writeV1Store(t, path, m, 4)
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	buf[24+9*idxEntryLenV1] = 0x42 // tile (0,0) magic byte
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(path, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Tile(context.Background(), 0, 0); !errors.Is(err, ErrCorruptTile) {
		t.Fatalf("v1 smashed tile header: err = %v, want ErrCorruptTile", err)
	}
}

// TestOpenErrorsAreTyped maps each malformed-store class to the sentinel
// an operator dispatches on: not-a-store, unsupported version, malformed.
func TestOpenErrorsAreTyped(t *testing.T) {
	good, err := os.ReadFile(writeTestStore(t, testMatrix(12, 4), 4))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, tc := range []struct {
		name   string
		want   error
		mutate func([]byte) []byte
	}{
		{"bad-magic", ErrNotAStore, func(b []byte) []byte { b[0] = 'X'; return b }},
		{"empty-file", ErrMalformed, func(b []byte) []byte { return nil }},
		{"truncated-header", ErrMalformed, func(b []byte) []byte { return b[:10] }},
		{"future-version", ErrVersion, func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[8:12], 99)
			return b
		}},
		{"zero-version", ErrVersion, func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[8:12], 0)
			return b
		}},
		{"zero-n", ErrMalformed, func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[12:16], 0)
			return b
		}},
		{"b-gt-n", ErrMalformed, func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[16:20], 1000)
			return b
		}},
		{"q-mismatch", ErrMalformed, func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[20:24], 7)
			return b
		}},
		{"truncated-index", ErrMalformed, func(b []byte) []byte { return b[:30] }},
		{"truncated-body", ErrMalformed, func(b []byte) []byte { return b[:len(b)-5] }},
		{"index-off-out-of-file", ErrMalformed, func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[24:32], 1<<40)
			return b
		}},
		{"index-len-mismatch", ErrMalformed, func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[32:40], 12345)
			return b
		}},
		{"q-overflow-forgery", ErrMalformed, func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[12:16], 0xFFFFFFFF)
			binary.LittleEndian.PutUint32(b[16:20], 1)
			binary.LittleEndian.PutUint32(b[20:24], 0xFFFFFFFF)
			return b
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			buf := tc.mutate(append([]byte(nil), good...))
			path := filepath.Join(dir, tc.name)
			if err := os.WriteFile(path, buf, 0o644); err != nil {
				t.Fatal(err)
			}
			s, err := Open(path, 1<<20)
			if err == nil {
				s.Close()
				t.Fatal("malformed store opened cleanly")
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want errors.Is(%v)", err, tc.want)
			}
		})
	}
}

// FuzzOpen feeds arbitrary bytes (seeded with a valid store and its
// truncations) through Open: it must reject or accept, never panic. An
// accepted store must survive a probe query without panicking either.
func FuzzOpen(f *testing.F) {
	seed := filepath.Join(f.TempDir(), "seed.apsp")
	if err := Write(seed, testMatrix(9, 2), 4); err != nil {
		f.Fatal(err)
	}
	good, err := os.ReadFile(seed)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	for _, cut := range []int{0, 7, 8, 12, 23, 24, 40, len(good) / 2, len(good) - 1} {
		if cut <= len(good) {
			f.Add(good[:cut])
		}
	}
	flip := append([]byte(nil), good...)
	flip[9] ^= 0xFF
	f.Add(flip)
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.apsp")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Skip()
		}
		s, err := Open(path, 1<<16)
		if err != nil {
			return
		}
		defer s.Close()
		// Whatever parsed must also be probeable without panicking.
		_, _ = s.Dist(context.Background(), 0, 0)
		_, _ = s.Row(context.Background(), s.N()-1)
	})
}
