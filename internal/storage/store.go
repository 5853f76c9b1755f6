package storage

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"

	"github.com/optlab/opt/internal/graph"
	"github.com/optlab/opt/internal/ssd"
)

// Store file layout (v3):
//
//	header (64 bytes): magic "OPTSTOR3", version, pageSize, numVertices,
//	                   numPages, numEdges, dirOffset, dataOffset, codec id
//	vertex directory:  numVertices × (firstPage uint32, degree uint32,
//	                   succ uint32), succ = |n≻(v)|
//	page directory:    numPages × (firstRecord uint32; NoRecord for
//	                   continuation pages)
//	padding:           zero bytes up to the next ssd.DirectAlign boundary,
//	                   so the data region is O_DIRECT-eligible
//	data pages:        numPages × pageSize
//
// dataOffset in the header is authoritative; readers accept both padded
// files and the unpadded layout older writers produced. v2 files
// ("OPTSTOR2") have the same header and pages but an 8-byte vertex entry
// without succ, v1 files ("OPTSTOR1") also no codec field and always raw
// pages; both remain readable, and Open derives their successor directory
// from the pages (deriveSucc), so every open Store has one.
const (
	storeMagicV1   = "OPTSTOR1"
	storeMagicV2   = "OPTSTOR2"
	storeMagicV3   = "OPTSTOR3"
	storeMagicStem = "OPTSTOR"
	headerSize     = 64
	storeVersionV1 = 1
	storeVersionV2 = 2
	storeVersionV3 = 3
)

// vertexEntrySize returns the bytes of one vertex directory entry in a
// store file of the given version.
func vertexEntrySize(version int) int64 {
	if version >= storeVersionV3 {
		return 12
	}
	return 8
}

// dirEnd returns where a store file's directories end.
func dirEnd(version, numVertices int, numPages uint32) int64 {
	return headerSize + vertexEntrySize(version)*int64(numVertices) + 4*int64(numPages)
}

// DefaultPageSize is used when BuildFile is given a page size of 0.
const DefaultPageSize = 8192

// Store describes an on-disk slotted-page graph. The vertex and page
// directories are memory resident (12 bytes and 4 bytes per entry), as in
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
	succ        []uint32 // vertex id -> |n≻(v)|
	pageFirst   []uint32 // page id -> first record starting there, or NoRecord
}

// Version returns the store file format version (1, 2 or 3); a zero-value
// Store reports the current version.
func (s *Store) Version() int {
	if s.version == 0 {
		return storeVersionV3
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
	succ := make([]uint32, n)
	for v := 0; v < n; v++ {
		adj := g.Neighbors(graph.VertexID(v))
		// The record's start page is a write-time fact the writer reports;
		// with variable-width codecs it cannot be recomputed from degrees.
		firstPage[v] = w.appendRecord(uint32(v), adj)
		degree[v] = uint32(len(adj))
		succ[v] = successors(adj, uint32(v))
	}
	pages, pageFirst := w.finish()

	s := &Store{
		Path:        path,
		PageSize:    pageSize,
		NumVertices: n,
		NumEdges:    g.NumEdges(),
		NumPages:    uint32(len(pages)),
		version:     storeVersionV3,
		codec:       codec,
		firstPage:   firstPage,
		degree:      degree,
		succ:        succ,
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
	end := dirEnd(storeVersionV3, s.NumVertices, s.NumPages)
	s.dataOffset = (end + ssd.DirectAlign - 1) &^ int64(ssd.DirectAlign-1)

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
	if _, err = bw.Write(make([]byte, s.dataOffset-end)); err != nil {
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
	copy(h[0:8], storeMagicV3)
	binary.LittleEndian.PutUint32(h[8:], storeVersionV3)
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
	buf := make([]byte, 12*s.NumVertices)
	for v := 0; v < s.NumVertices; v++ {
		binary.LittleEndian.PutUint32(buf[12*v:], s.firstPage[v])
		binary.LittleEndian.PutUint32(buf[12*v+4:], s.degree[v])
		binary.LittleEndian.PutUint32(buf[12*v+8:], s.succ[v])
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

// Open reads the directories of a store file built by BuildFile. v1
// ("OPTSTOR1", always raw pages), v2 ("OPTSTOR2", codec id in the header)
// and v3 ("OPTSTOR3", successor directory) files are accepted; unknown
// versions and codec ids are rejected with ErrUnknownVersion /
// ErrUnknownCodec, directories that are not those of records stored in id
// order with ErrCorruptDirectory. A v1 or v2 file has no successor
// directory: Open derives it from the pages in one sequential pass, which
// holds every page to the directories as DecodeAt does.
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
	case storeMagicV2, storeMagicV3:
		if want := uint32(magic[7] - '0'); version != want {
			return nil, fmt.Errorf("%w: %s: v%d magic with version field %d", ErrUnknownVersion, path, want, version)
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
	end := dirEnd(s.version, s.NumVertices, s.NumPages)
	if s.dataOffset < end || s.dataOffset >= end+ssd.DirectAlign {
		return nil, fmt.Errorf("storage: %s: data offset %d outside [%d, %d)", path, s.dataOffset, end, end+ssd.DirectAlign)
	}
	wantSize := s.dataOffset + int64(s.NumPages)*int64(s.PageSize)
	if fi.Size() < wantSize {
		return nil, fmt.Errorf("storage: %s: file is %d bytes, header implies %d", path, fi.Size(), wantSize)
	}
	br := bufio.NewReaderSize(f, 1<<20)
	entry := int(vertexEntrySize(s.version))
	buf := make([]byte, entry*s.NumVertices)
	if _, err := io.ReadFull(br, buf); err != nil {
		return nil, fmt.Errorf("storage: reading vertex directory: %w", err)
	}
	s.firstPage = make([]uint32, s.NumVertices)
	s.degree = make([]uint32, s.NumVertices)
	for v := 0; v < s.NumVertices; v++ {
		s.firstPage[v] = binary.LittleEndian.Uint32(buf[entry*v:])
		s.degree[v] = binary.LittleEndian.Uint32(buf[entry*v+4:])
	}
	if s.version >= storeVersionV3 {
		s.succ = make([]uint32, s.NumVertices)
		for v := range s.succ {
			s.succ[v] = binary.LittleEndian.Uint32(buf[entry*v+8:])
		}
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
	if s.succ == nil {
		if _, err := br.Discard(int(s.dataOffset - end)); err != nil {
			return nil, fmt.Errorf("storage: %s: skipping to the data pages: %w", path, err)
		}
		if err := s.deriveSucc(br); err != nil {
			return nil, fmt.Errorf("storage: %s: deriving the successor directory: %w", path, err)
		}
	}
	return s, nil
}

// deriveSucc fills the successor directory of a v1 or v2 store from its
// data pages, read in order from r: one pass, a few aligned pages at a time,
// every span held to the directories and to its page by DecodeAt.
func (s *Store) deriveSucc(r io.Reader) error {
	succ := make([]uint32, s.NumVertices)
	var (
		data  []byte
		recs  []VertexRec
		arena []uint32
	)
	for p := uint32(0); p < s.NumPages; {
		n := s.AlignedRange(p, 16)
		data = slices.Grow(data[:0], n*s.PageSize)[:n*s.PageSize]
		if _, err := io.ReadFull(r, data); err != nil {
			return err
		}
		var err error
		if recs, arena, err = s.DecodeAt(recs[:0], arena[:0], p, data); err != nil {
			return fmt.Errorf("pages [%d,+%d): %w", p, n, err)
		}
		for _, rec := range recs {
			succ[rec.ID] = successors(rec.Adj, rec.ID)
		}
		p += uint32(n)
	}
	s.succ = succ
	return nil
}

// successors returns |n≻(v)| of v's sorted list adj: how many of its ids
// are above v.
func successors(adj []uint32, v uint32) uint32 {
	i, self := slices.BinarySearch(adj, v)
	if self {
		i++
	}
	return uint32(len(adj) - i)
}

// checkDirectories verifies what every reader of the directories relies on,
// once at Open instead of at each use: records are stored in id order, so
// the vertex directory never decreases and points inside the store, the
// first-record entries of the page directory never decrease and name a
// vertex, and page 0 starts a record. Ascending vertex id is then ascending
// page (core builds its request list on that without sorting), and
// FirstPageOf, AlignedRange and [FirstRecordOf(lo), FirstRecordOf(hi)) are
// in range for whatever a caller derives from them. A successor directory,
// when the file has one, counts each edge once, at its lower endpoint: no
// entry exceeds its degree, and the entries sum to |E|. That they split
// each list where its ids pass the vertex is checked per record on decode
// (checkRecords).
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
	if s.succ == nil {
		return nil
	}
	var sum int64
	for v, n := range s.succ {
		if n > s.degree[v] {
			return fmt.Errorf("%w: vertex %d has %d successors of %d neighbors", ErrCorruptDirectory, v, n, s.degree[v])
		}
		sum += int64(n)
	}
	if sum != s.NumEdges {
		return fmt.Errorf("%w: the successor directory holds %d edges, the header %d", ErrCorruptDirectory, sum, s.NumEdges)
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

// SuccOf returns |n≻(v)|, read off the successor directory.
func (s *Store) SuccOf(v graph.VertexID) int { return int(s.succ[v]) }

// Successors returns n≻(v) of a record v whose Adj ends with it: the last
// SuccOf(v.ID) ids, with no search. That is every record DecodeAppend
// returns — it checked that the successor directory splits the list there —
// and any n≻(v) itself.
func (s *Store) Successors(v VertexRec) []uint32 {
	return v.Adj[len(v.Adj)-int(s.succ[v.ID]):]
}

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

// DecodeAppend decodes a raw page span read from the device, where data
// begins at a page boundary, dispatching to the store's codec, appending
// records onto dst and neighbors onto arena (see DecodeRangeAppend), and
// holds the records this call appends to the directories (checkRecords).
// Which page the span was read from it cannot know: readers call DecodeAt.
func (s *Store) DecodeAppend(dst []VertexRec, arena []uint32, data []byte) ([]VertexRec, []uint32, error) {
	n := len(dst)
	recs, arena, err := DecodeRangeAppend(dst, arena, s.codecOrRaw(), s.PageSize, data)
	if err == nil {
		err = s.checkRecords(recs[n:], len(data)/s.PageSize)
	}
	return recs, arena, err
}

// DecodeAt is DecodeAppend of a span read from page first on: it also holds
// the span to that page, so a device that answers with other pages — a span
// that decodes cleanly and agrees with the directories, but starts
// elsewhere — is ErrCorruptPage, never records at the wrong ids. It is the
// one place a reader's position is checked.
func (s *Store) DecodeAt(dst []VertexRec, arena []uint32, first uint32, data []byte) ([]VertexRec, []uint32, error) {
	n := len(dst)
	recs, arena, err := s.DecodeAppend(dst, arena, data)
	if err == nil && len(recs) > n && recs[n].ID != s.FirstRecordOf(first) {
		err = fmt.Errorf("%w: pages [%d,+%d) start with record %d, page %d with %d",
			ErrCorruptPage, first, len(data)/s.PageSize, recs[n].ID, first, s.FirstRecordOf(first))
	}
	return recs, arena, err
}

// Scanner is the sequential reader of a store's pages: the scans of MGT and
// Verify, the working-file conversion of the iterative baselines and the
// Shard2D block loads all read through one. Its zero value is ready to use;
// it keeps its read buffer, records and neighbor arena from span to span and
// from scan to scan, so a warm scan allocates nothing. A Scanner is not safe
// for concurrent use.
type Scanner struct {
	buf   []byte
	recs  []VertexRec
	arena []uint32
}

// pageReader is the read a Scanner issues: ssd.PageDevice's, and
// ssd.SyncDevice's, which charges it to the run's latency model.
type pageReader interface {
	ReadPagesInto(buf []byte, first uint32, count int) error
}

// Scan reads the pages [lo, hi) of st through dev in order, in spans of at
// most span pages, each extended to a record boundary (AlignedRange) and
// clipped at hi, and hands each span's records to fn. lo must start a
// record. Every span is decoded by DecodeAt, so fn sees only records held
// to the directories and to the pages read. The records and their lists
// are the Scanner's and valid until fn returns. Scan stops at the first
// error: ctx's, before a read; the read's or the decode's, wrapped with the
// span; or fn's, as it is.
func (sc *Scanner) Scan(ctx context.Context, st *Store, dev pageReader, lo, hi uint32, span int, fn func([]VertexRec) error) error {
	for p := lo; p < hi; {
		if err := ctx.Err(); err != nil {
			return err
		}
		n := min(st.AlignedRange(p, span), int(hi-p))
		size := n * st.PageSize
		sc.buf = slices.Grow(sc.buf[:0], size)[:size]
		if err := dev.ReadPagesInto(sc.buf, p, n); err != nil {
			return fmt.Errorf("storage: reading pages [%d,+%d): %w", p, n, err)
		}
		var err error
		if sc.recs, sc.arena, err = st.DecodeAt(sc.recs[:0], sc.arena[:0], p, sc.buf); err != nil {
			return fmt.Errorf("storage: decoding pages [%d,+%d): %w", p, n, err)
		}
		if err := fn(sc.recs); err != nil {
			return err
		}
		p += uint32(n)
	}
	return nil
}

// checkRecords holds the records decoded from a span of pages to the
// directories, so no reader indexes memory by an id the bytes made up or
// runs a kernel over an unsorted list. The span is named by the bytes: its
// first record r0 must start its page p0 = FirstPageOf(r0), and since every
// vertex has a record, the span then holds exactly the records
// [FirstRecordOf(p0), FirstRecordOf(p0+pages)) in id order. Each list must
// be as long as the degree directory says, strictly ascending, and so below
// |V| when its last id is; and its last SuccOf ids must be exactly those
// above the record's id, one comparison on each side of the split, so that
// Successors needs no search. Whether p0 is the page the caller asked for
// is DecodeAt's check.
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
		if s.succ == nil { // deriveSucc is reading the pages that fill it
			continue
		}
		if k := len(adj) - int(s.succ[rec.ID]); (k > 0 && adj[k-1] >= rec.ID) || (k < len(adj) && adj[k] <= rec.ID) {
			return fmt.Errorf("%w: record %d holds %d neighbors, its successor directory entry %d does not split them at the record",
				ErrCorruptPage, rec.ID, len(adj), s.succ[rec.ID])
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
