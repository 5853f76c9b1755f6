package storage

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"github.com/optlab/opt/internal/graph"
	"github.com/optlab/opt/internal/ssd"
)

// Store file layout (v2):
//
//	header (64 bytes): magic "OPTSTOR2", version, pageSize, numVertices,
//	                   numPages, numEdges, dirOffset, dataOffset, codec id
//	vertex directory:  numVertices × (firstPage uint32, degree uint32)
//	page directory:    numPages × (firstRecord uint32; NoRecord for
//	                   continuation pages)
//	padding:           zero bytes up to the next ssd.DirectAlign boundary,
//	                   so the data region is O_DIRECT-eligible
//	data pages:        numPages × pageSize
//
// dataOffset in the header is authoritative; readers accept both padded
// files and the unpadded layout older writers produced. v1 files
// ("OPTSTOR1", no codec field) remain readable: their pages are
// bit-identical to v2 pages under the raw codec.
const (
	storeMagicV1   = "OPTSTOR1"
	storeMagicV2   = "OPTSTOR2"
	storeMagicStem = "OPTSTOR"
	headerSize     = 64
	storeVersionV1 = 1
	storeVersionV2 = 2
)

// DefaultPageSize is used when BuildFile is given a page size of 0.
const DefaultPageSize = 8192

// Store describes an on-disk slotted-page graph. The vertex and page
// directories are memory resident (8 bytes and 4 bytes per entry), as in
// the paper's implementation; the data pages are read through an
// ssd.PageDevice.
type Store struct {
	Path        string
	PageSize    int
	NumVertices int
	NumEdges    int64
	NumPages    uint32
	version     int
	codec       Codec
	dataOffset  int64
	firstPage   []uint32 // vertex id -> first data page of its record
	degree      []uint32 // vertex id -> |n(v)|
	pageFirst   []uint32 // page id -> first record starting there, or NoRecord
}

// Version returns the store file format version (1 or 2); a zero-value
// Store reports the current version.
func (s *Store) Version() int {
	if s.version == 0 {
		return storeVersionV2
	}
	return s.version
}

// CodecName returns the name of the page codec the store was built with; a
// zero-value Store reports raw.
func (s *Store) CodecName() string { return s.codecOrRaw().Name() }

func (s *Store) codecOrRaw() Codec {
	if s.codec == nil {
		return rawCodecInst
	}
	return s.codec
}

// BuildFile encodes g into a store file at path using the raw codec.
// Vertices are written in id order, so with a degree-ordered graph the
// storage order matches the ≺ order (see DESIGN.md). pageSize 0 selects
// DefaultPageSize.
func BuildFile(path string, g *graph.Graph, pageSize int) (*Store, error) {
	return BuildFileCodec(path, g, pageSize, CodecRaw)
}

// BuildFileCodec is BuildFile with an explicit page codec name (see Codecs).
func BuildFileCodec(path string, g *graph.Graph, pageSize int, codecName string) (*Store, error) {
	codec, err := CodecByName(codecName)
	if err != nil {
		return nil, err
	}
	if pageSize == 0 {
		pageSize = DefaultPageSize
	}
	if min := MinPageSizeFor(codec); pageSize < min {
		return nil, fmt.Errorf("storage: page size %d below %s codec minimum %d", pageSize, codec.Name(), min)
	}
	w := newPageWriter(pageSize, codec)
	n := g.NumVertices()
	firstPage := make([]uint32, n)
	degree := make([]uint32, n)
	for v := 0; v < n; v++ {
		adj := g.Neighbors(graph.VertexID(v))
		// The record's start page is a write-time fact the writer reports;
		// with variable-width codecs it cannot be recomputed from degrees.
		firstPage[v] = w.appendRecord(uint32(v), adj)
		degree[v] = uint32(len(adj))
	}
	pages, pageFirst := w.finish()

	s := &Store{
		Path:        path,
		PageSize:    pageSize,
		NumVertices: n,
		NumEdges:    g.NumEdges(),
		NumPages:    uint32(len(pages)),
		version:     storeVersionV2,
		codec:       codec,
		firstPage:   firstPage,
		degree:      degree,
		pageFirst:   pageFirst,
	}
	readers := make([]io.Reader, len(pages))
	for i, p := range pages {
		readers[i] = bytes.NewReader(p)
	}
	if err := s.writeFile(io.MultiReader(readers...)); err != nil {
		return nil, err
	}
	return s, nil
}

// writeFile assembles the store file both builders produce — header,
// directories, zero padding up to dataOffset, then the data pages read from
// pages — in a temp file beside s.Path, renamed into place only once
// complete. The destination therefore never holds a half-written store: a
// failed or cancelled build leaves whatever was there before (and no temp
// file), and a device opened on the old store keeps reading the old pages,
// since the rename replaces the directory entry rather than the file's
// contents. Durability across power loss (fsync) is not attempted here.
func (s *Store) writeFile(pages io.Reader) (err error) {
	// Round the data region up to the O_DIRECT alignment: with an aligned
	// page size this is what lets the native backend open the store
	// O_DIRECT instead of demoting to buffered reads (DESIGN.md §14).
	dirEnd := headerSize + int64(8*s.NumVertices) + int64(4)*int64(s.NumPages)
	s.dataOffset = (dirEnd + ssd.DirectAlign - 1) &^ int64(ssd.DirectAlign-1)

	tmp, err := os.CreateTemp(filepath.Dir(s.Path), filepath.Base(s.Path)+".tmp-*")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	bw := bufio.NewWriterSize(tmp, 1<<20)
	if err = s.writeHeader(bw); err != nil {
		return err
	}
	if err = s.writeDirectories(bw); err != nil {
		return err
	}
	if _, err = bw.Write(make([]byte, s.dataOffset-dirEnd)); err != nil {
		return err
	}
	if _, err = io.Copy(bw, pages); err != nil {
		return err
	}
	if err = bw.Flush(); err != nil {
		return err
	}
	if err = tmp.Chmod(0o644); err != nil { // CreateTemp's 0600 is not a store's mode
		return err
	}
	if err = tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), s.Path)
}

func (s *Store) writeHeader(w io.Writer) error {
	var h [headerSize]byte
	copy(h[0:8], storeMagicV2)
	binary.LittleEndian.PutUint32(h[8:], storeVersionV2)
	binary.LittleEndian.PutUint32(h[12:], uint32(s.PageSize))
	binary.LittleEndian.PutUint32(h[16:], uint32(s.NumVertices))
	binary.LittleEndian.PutUint32(h[20:], s.NumPages)
	binary.LittleEndian.PutUint64(h[24:], uint64(s.NumEdges))
	binary.LittleEndian.PutUint64(h[32:], uint64(headerSize))
	binary.LittleEndian.PutUint64(h[40:], uint64(s.dataOffset))
	binary.LittleEndian.PutUint16(h[48:], s.codecOrRaw().ID())
	_, err := w.Write(h[:])
	return err
}

func (s *Store) writeDirectories(w io.Writer) error {
	buf := make([]byte, 8*s.NumVertices)
	for v := 0; v < s.NumVertices; v++ {
		binary.LittleEndian.PutUint32(buf[8*v:], s.firstPage[v])
		binary.LittleEndian.PutUint32(buf[8*v+4:], s.degree[v])
	}
	if _, err := w.Write(buf); err != nil {
		return err
	}
	pbuf := make([]byte, 4*len(s.pageFirst))
	for i, x := range s.pageFirst {
		binary.LittleEndian.PutUint32(pbuf[4*i:], x)
	}
	_, err := w.Write(pbuf)
	return err
}

// Open reads the directories of a store file built by BuildFile. Both v1
// ("OPTSTOR1", always raw pages) and v2 ("OPTSTOR2", codec id in the
// header) files are accepted; unknown versions and codec ids are rejected
// with ErrUnknownVersion / ErrUnknownCodec, directories that are not those
// of records stored in id order with ErrCorruptDirectory.
func Open(path string) (*Store, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var h [headerSize]byte
	if _, err := io.ReadFull(f, h[:]); err != nil {
		return nil, fmt.Errorf("storage: reading header of %s: %w", path, err)
	}
	magic := string(h[0:8])
	version := binary.LittleEndian.Uint32(h[8:])
	var codec Codec
	switch magic {
	case storeMagicV1:
		if version != storeVersionV1 {
			return nil, fmt.Errorf("%w: %s: v1 magic with version field %d", ErrUnknownVersion, path, version)
		}
		codec = rawCodecInst
	case storeMagicV2:
		if version != storeVersionV2 {
			return nil, fmt.Errorf("%w: %s: v2 magic with version field %d", ErrUnknownVersion, path, version)
		}
		codec, err = codecByID(binary.LittleEndian.Uint16(h[48:]))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
	default:
		if string(h[0:7]) == storeMagicStem {
			return nil, fmt.Errorf("%w: %s: magic %q", ErrUnknownVersion, path, magic)
		}
		return nil, fmt.Errorf("storage: %s is not a store file", path)
	}
	s := &Store{
		Path:        path,
		PageSize:    int(binary.LittleEndian.Uint32(h[12:])),
		NumVertices: int(binary.LittleEndian.Uint32(h[16:])),
		NumPages:    binary.LittleEndian.Uint32(h[20:]),
		NumEdges:    int64(binary.LittleEndian.Uint64(h[24:])),
		version:     int(version),
		codec:       codec,
		dataOffset:  int64(binary.LittleEndian.Uint64(h[40:])),
	}
	// Validate the header against the file size before allocating
	// directories, so a corrupt header cannot demand absurd memory.
	if s.PageSize < MinPageSize {
		return nil, fmt.Errorf("storage: %s: page size %d below minimum", path, s.PageSize)
	}
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	// dataOffset must cover the directories and may include up to one
	// DirectAlign round of padding (older writers wrote none).
	dirEnd := headerSize + int64(8)*int64(s.NumVertices) + int64(4)*int64(s.NumPages)
	if s.dataOffset < dirEnd || s.dataOffset >= dirEnd+ssd.DirectAlign {
		return nil, fmt.Errorf("storage: %s: data offset %d outside [%d, %d)", path, s.dataOffset, dirEnd, dirEnd+ssd.DirectAlign)
	}
	wantSize := s.dataOffset + int64(s.NumPages)*int64(s.PageSize)
	if fi.Size() < wantSize {
		return nil, fmt.Errorf("storage: %s: file is %d bytes, header implies %d", path, fi.Size(), wantSize)
	}
	br := bufio.NewReaderSize(f, 1<<20)
	buf := make([]byte, 8*s.NumVertices)
	if _, err := io.ReadFull(br, buf); err != nil {
		return nil, fmt.Errorf("storage: reading vertex directory: %w", err)
	}
	s.firstPage = make([]uint32, s.NumVertices)
	s.degree = make([]uint32, s.NumVertices)
	for v := 0; v < s.NumVertices; v++ {
		s.firstPage[v] = binary.LittleEndian.Uint32(buf[8*v:])
		s.degree[v] = binary.LittleEndian.Uint32(buf[8*v+4:])
	}
	pbuf := make([]byte, 4*s.NumPages)
	if _, err := io.ReadFull(br, pbuf); err != nil {
		return nil, fmt.Errorf("storage: reading page directory: %w", err)
	}
	s.pageFirst = make([]uint32, s.NumPages)
	for i := range s.pageFirst {
		s.pageFirst[i] = binary.LittleEndian.Uint32(pbuf[4*i:])
	}
	if err := s.checkDirectories(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// checkDirectories verifies what every reader of the directories relies on,
// once at Open instead of at each use: records are stored in id order, so
// the vertex directory never decreases and points inside the store, the
// first-record entries of the page directory never decrease and name a
// vertex, and page 0 starts a record. Ascending vertex id is then ascending
// page (core builds its request list on that without sorting), and
// FirstPageOf, AlignedRange and [FirstRecordOf(lo), FirstRecordOf(hi)) are
// in range for whatever a caller derives from them.
func (s *Store) checkDirectories() error {
	var prev uint32
	for v, p := range s.firstPage {
		if p < prev || p >= s.NumPages {
			return fmt.Errorf("%w: vertex %d starts in page %d (previous vertex in %d, %d pages)", ErrCorruptDirectory, v, p, prev, s.NumPages)
		}
		prev = p
	}
	if s.NumPages > 0 && s.pageFirst[0] == NoRecord {
		return fmt.Errorf("%w: page 0 starts no record", ErrCorruptDirectory)
	}
	prev = 0
	for p, v := range s.pageFirst {
		if v == NoRecord {
			continue
		}
		if v < prev || int(v) >= s.NumVertices {
			return fmt.Errorf("%w: page %d starts with record %d (previous start %d, %d vertices)", ErrCorruptDirectory, p, v, prev, s.NumVertices)
		}
		prev = v
	}
	return nil
}

// Device opens the store's data-page region as a read-only file device
// through the portable backend.
func (s *Store) Device() (*ssd.FileDevice, error) {
	return ssd.OpenFileDevice(s.Path, s.dataOffset, s.PageSize)
}

// DeviceBackend opens the store's data-page region through the selected
// ssd backend; the empty backend resolves like ssd.ParseBackend("").
func (s *Store) DeviceBackend(backend ssd.Backend) (ssd.PageDevice, error) {
	return ssd.OpenDeviceBackend(s.Path, s.dataOffset, s.PageSize, backend)
}

// FirstPageOf returns the data page where v's record starts.
func (s *Store) FirstPageOf(v graph.VertexID) uint32 { return s.firstPage[v] }

// DegreeOf returns |n(v)|.
func (s *Store) DegreeOf(v graph.VertexID) int { return int(s.degree[v]) }

// SpanOf returns the number of pages v's record occupies, derived from the
// page directory (with variable-width codecs the span is not a function of
// the degree). A directory pointing outside the store yields 0.
func (s *Store) SpanOf(v graph.VertexID) int {
	first := s.firstPage[v]
	if first >= s.NumPages {
		return 0
	}
	return s.AlignedRange(first, 1)
}

// StartsRecord reports whether a record begins in page pid (false for run
// continuation pages).
func (s *Store) StartsRecord(pid uint32) bool {
	return s.pageFirst[pid] != NoRecord
}

// FirstRecordOf returns the id of the first record starting in page pid,
// or NoRecord for continuation pages. For pid == NumPages it returns the
// number of vertices, so [FirstRecordOf(lo), FirstRecordOf(hi)) is the
// vertex range covered by the aligned page range [lo, hi).
func (s *Store) FirstRecordOf(pid uint32) uint32 {
	if pid >= s.NumPages {
		return uint32(s.NumVertices)
	}
	return s.pageFirst[pid]
}

// AlignedRange extends the page range [start, start+count) so it ends at a
// record boundary: the returned count includes any continuation pages of a
// run that begins inside the range. start itself must begin a record
// (callers iterate ranges produced by this method starting at page 0).
func (s *Store) AlignedRange(start uint32, count int) int {
	end := int64(start) + int64(count)
	if end > int64(s.NumPages) {
		end = int64(s.NumPages)
	}
	for end < int64(s.NumPages) && !s.StartsRecord(uint32(end)) {
		end++
	}
	return int(end - int64(start))
}

// Decode decodes a raw page span read from the device, where data begins at
// a page boundary, dispatching to the store's codec, and holds the records
// to the directories (checkRecords). See DecodeRange.
func (s *Store) Decode(data []byte) ([]VertexRec, error) {
	recs, _, err := s.DecodeAppend(nil, nil, data)
	return recs, err
}

// DecodeAppend is Decode appending records onto dst and neighbors onto
// arena; see DecodeRangeAppend. Only the records this call appends are
// checked.
func (s *Store) DecodeAppend(dst []VertexRec, arena []uint32, data []byte) ([]VertexRec, []uint32, error) {
	n := len(dst)
	recs, arena, err := DecodeRangeAppend(dst, arena, s.codecOrRaw(), s.PageSize, data)
	if err == nil {
		err = s.checkRecords(recs[n:], len(data)/s.PageSize)
	}
	return recs, arena, err
}

// checkRecords holds the records decoded from a span of pages to the
// directories, so no reader indexes memory by an id the bytes made up or
// runs a kernel over an unsorted list. The span is named by the bytes: its
// first record r0 must start its page p0 = FirstPageOf(r0), and since every
// vertex has a record, the span then holds exactly the records
// [FirstRecordOf(p0), FirstRecordOf(p0+pages)) in id order. Each list must
// be as long as the degree directory says, strictly ascending, and so below
// |V| when its last id is. Whether p0 is the page the caller asked for is
// the caller's check.
func (s *Store) checkRecords(recs []VertexRec, pages int) error {
	if pages == 0 {
		return nil
	}
	if len(recs) == 0 {
		return fmt.Errorf("%w: %d pages hold no record", ErrCorruptPage, pages)
	}
	r0 := recs[0].ID
	if int(r0) >= s.NumVertices {
		return fmt.Errorf("%w: record %d of %d vertices", ErrCorruptPage, r0, s.NumVertices)
	}
	p0 := s.FirstPageOf(r0)
	end := s.FirstRecordOf(p0 + uint32(pages))
	if s.FirstRecordOf(p0) != r0 || int64(end)-int64(r0) != int64(len(recs)) {
		return fmt.Errorf("%w: %d pages from page %d hold %d records from %d, the directories say [%d,%d)",
			ErrCorruptPage, pages, p0, len(recs), r0, s.FirstRecordOf(p0), end)
	}
	for i, rec := range recs {
		if rec.ID != r0+uint32(i) {
			return fmt.Errorf("%w: record %d where %d belongs", ErrCorruptPage, rec.ID, r0+uint32(i))
		}
		adj := rec.Adj
		if len(adj) != s.DegreeOf(rec.ID) {
			return fmt.Errorf("%w: record %d holds %d neighbors, its degree is %d", ErrCorruptPage, rec.ID, len(adj), s.DegreeOf(rec.ID))
		}
		if len(adj) == 0 {
			continue
		}
		prev := adj[0]
		for _, x := range adj[1:] {
			if x <= prev {
				return fmt.Errorf("%w: neighbors %d, %d of record %d out of order", ErrCorruptPage, prev, x, rec.ID)
			}
			prev = x
		}
		if int(prev) >= s.NumVertices {
			return fmt.Errorf("%w: record %d holds neighbor %d of %d vertices", ErrCorruptPage, rec.ID, prev, s.NumVertices)
		}
	}
	return nil
}

// RawDataPages returns how many data pages the store's records would occupy
// under the raw codec at the same page size, simulated from the degree
// directory. optinfo reports the ratio NumPages/RawDataPages as the
// compression achieved by the store's codec.
func (s *Store) RawDataPages() int64 {
	nStart := (s.PageSize - pageHeaderSize - recHeaderSize) / 4
	nCont := (s.PageSize - pageHeaderSize) / 4
	var pages int64
	used := 0 // payload bytes used in the current shared page, 0 = no open page
	for _, d := range s.degree {
		recSize := recHeaderSize + 4*int(d)
		if recSize <= s.PageSize-pageHeaderSize {
			if used > 0 && pageHeaderSize+used+recSize > s.PageSize {
				pages++
				used = 0
			}
			used += recSize
			continue
		}
		if used > 0 {
			pages++
			used = 0
		}
		rest := int(d) - nStart
		pages += 1 + int64((rest+nCont-1)/nCont)
	}
	if used > 0 {
		pages++
	}
	return pages
}
