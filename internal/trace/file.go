package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sync/atomic"
)

// The on-disk trace format is a substitute for Pixie's binary trace output:
// a fixed header followed by delta-encoded records. Addresses are
// zigzag-varint encoded as deltas from the previous address of the same
// kind, which keeps sequential sweeps (the common case in the paper's
// workloads) to 2-3 bytes per reference.
//
// Version 2 frames the record stream into self-checking chunks so a
// damaged or cut-off file is diagnosed instead of silently replaying
// garbage:
//
//	header:  "GTRC" version
//	chunk:   uvarint payloadLen (>0) | payload | uvarint recordCount | crc32
//	...
//	trailer: uvarint 0 | uvarint totalRecords | crc32
//
// The payload is the version-1 record encoding (kind byte, size byte,
// zigzag-varint address delta). Each CRC32 (IEEE, little-endian) covers
// every chunk byte before it, length varint included. The zero-length
// trailer chunk is mandatory: a reader reaching EOF without it reports
// ErrTruncated, so truncation at any byte past the header is detected,
// and a flipped bit anywhere in a chunk fails its checksum (ErrCorrupt).
const (
	// Magic identifies a trace file.
	Magic = "GTRC"
	// FormatVersion is the trace file version Writer produces. Reader
	// also accepts version-1 files (unframed records, no checksums, no
	// trailer), whose truncation past a record boundary is undetectable.
	FormatVersion = 2
	// HeaderSize is the byte length of the file header (magic + version).
	HeaderSize = len(Magic) + 1
)

// Chunk geometry. Writer cuts a chunk every frameRecs records, so frames
// align with the DefaultChunk batches the simulation pipeline produces;
// Reader rejects lengths beyond the corresponding payload bound rather
// than trusting a corrupted length varint with a huge allocation.
const (
	frameRecs       = DefaultChunk
	maxFrameRecs    = 1 << 16
	maxFramePayload = maxFrameRecs * (binary.MaxVarintLen64 + 2)
)

var (
	// ErrBadMagic reports a file that is not a trace file.
	ErrBadMagic = errors.New("trace: bad magic")
	// ErrBadVersion reports an unsupported trace file version.
	ErrBadVersion = errors.New("trace: unsupported version")
	// ErrCorrupt reports a trace whose bytes are present but inconsistent:
	// a failed chunk checksum, a record count that does not match the
	// chunk payload, an invalid record kind, or data after the trailer.
	// Match with errors.Is.
	ErrCorrupt = errors.New("trace: corrupt trace file")
	// ErrTruncated reports a trace that ends before its trailer: the
	// underlying stream hit EOF mid-header, mid-chunk, or between chunks
	// without the mandatory zero-length trailer. Match with errors.Is.
	ErrTruncated = errors.New("trace: truncated trace file")
	errBadKind   = errors.New("trace: invalid record kind")
	errClosed    = errors.New("trace: write after Close")
)

// WriterBufSize is the explicit size of the encoder's buffered writer:
// 64 KiB holds several thousand encoded records, so file-backed traces
// flush to the OS in large sequential writes even on the per-ref path.
const WriterBufSize = 1 << 16

// Writer encodes a reference stream to an io.Writer. It implements
// Recorder, BatchRecorder and BufferExchanger; call Close when done — the
// trailer it writes is what lets Reader distinguish a complete trace from
// a truncated one.
//
// Encoding runs behind a Pipeline: Record, RecordBatch and Exchange hand
// references to its ring, and its consumer delta-encodes, frames,
// checksums and writes them, so emitting a reference stream overlaps with
// encoding it. A buffered sim.CPU hands whole chunks over by Exchange,
// without a copy. The pipeline starts on the first record; Flush and
// Close drain it and stop its goroutine, and the next record after a
// Flush starts a new one. A Writer dropped without either keeps that
// goroutine parked, so close it on error paths too. At GOMAXPROCS=1 the pipeline runs inline: the
// Writer then encodes on the caller's goroutine and starts none. The
// bytes written do not depend on how the records arrive. A Writer is not
// safe for concurrent use, except for Count.
type Writer struct {
	enc    encoder
	pipe   *Pipeline // nil until the first record after NewWriter, Flush or Close
	closed bool
}

var _ BufferExchanger = (*Writer)(nil)

// NewWriter returns a Writer that encodes to w with a WriterBufSize
// buffer. The header is written lazily on the first record (or on Flush
// or Close).
func NewWriter(w io.Writer) *Writer {
	return NewWriterSize(w, WriterBufSize)
}

// NewWriterSize is NewWriter with an explicit output buffer size in bytes
// (values below bufio's minimum are rounded up by bufio).
func NewWriterSize(w io.Writer, size int) *Writer {
	return &Writer{enc: encoder{w: bufio.NewWriterSize(w, size)}}
}

// pipeline returns the running pipeline, starting one if there is none.
// After Close it returns nil and latches errClosed, unless an earlier
// error stands; the pipeline is stopped then, so the encoder's state is
// the producer's to touch.
func (tw *Writer) pipeline() *Pipeline {
	if tw.closed {
		if tw.enc.err == nil {
			tw.enc.err = errClosed
		}
		return nil
	}
	if tw.pipe == nil {
		tw.pipe = NewPipeline(&tw.enc, 0, 0)
	}
	return tw.pipe
}

// Record implements Recorder, handing one reference to the encoder.
func (tw *Writer) Record(r Ref) {
	if p := tw.pipeline(); p != nil {
		p.Record(r)
	}
}

// RecordBatch implements BatchRecorder. The caller keeps refs: the batch
// is copied into the pipeline's ring (or, inline, encoded before
// RecordBatch returns).
func (tw *Writer) RecordBatch(refs []Ref) {
	if p := tw.pipeline(); p != nil {
		p.RecordBatch(refs)
	}
}

// Exchange implements BufferExchanger: buf goes to the encoder as it is,
// and the caller gets an empty buffer back to fill next.
func (tw *Writer) Exchange(buf []Ref) []Ref {
	if p := tw.pipeline(); p != nil {
		return p.Exchange(buf)
	}
	return buf[:0]
}

// drain stops the pipeline, if one runs, once the encoder has taken
// every record handed to it, and returns the encoder's error.
func (tw *Writer) drain() error {
	if tw.pipe != nil {
		err := tw.pipe.Close()
		tw.pipe = nil
		if err != nil && tw.enc.err == nil {
			tw.enc.err = err
		}
	}
	return tw.enc.err
}

// Count returns the number of records encoded so far. Records still in
// the pipeline are not counted until the encoder takes them, so Count is
// exact after Flush or Close returns; it is safe to call at any time,
// also from another goroutine while the Writer is in use.
func (tw *Writer) Count() uint64 { return tw.enc.count.Load() }

// Flush drains the pipeline, writes the header (if not yet written),
// frames the open chunk, and flushes buffered output, making everything
// recorded so far durable. It returns the first error the Writer met:
// the underlying io.Writer's, an invalid record kind, or a record after
// Close. The trace is still incomplete until Close writes the trailer; a
// reader of a flushed-but-unclosed trace reports ErrTruncated at its end.
func (tw *Writer) Flush() error {
	if err := tw.drain(); err != nil {
		return err
	}
	return tw.enc.flush()
}

// Close completes the trace: it drains the pipeline, frames the open
// chunk, writes the zero-length trailer carrying the total record count,
// and flushes. It returns the first error the Writer met, as Flush does.
// It does not close the underlying io.Writer. Close is idempotent;
// recording after Close is an error, which a later Flush or Close
// returns.
func (tw *Writer) Close() error {
	if tw.closed {
		return tw.enc.err
	}
	tw.closed = true
	if err := tw.drain(); err != nil {
		return err
	}
	return tw.enc.close()
}

// encoder is the Writer's pipeline consumer: it delta-encodes records
// into chunks, frames and checksums them, and writes them through a
// buffered writer. While a pipeline runs, only its consumer touches the
// encoder; count is the one field the producer side reads then.
type encoder struct {
	w       *bufio.Writer
	last    [numKinds]uint64
	n       uint64
	count   atomic.Uint64 // n, published after each batch for Count
	pending []byte        // encoded records of the open chunk
	pendCnt int
	scratch [binary.MaxVarintLen64 + 2]byte
	err     error
	wrote   bool
}

func (tw *encoder) writeHeader() {
	if tw.wrote {
		return
	}
	tw.wrote = true
	if _, err := tw.w.WriteString(Magic); err != nil {
		tw.err = err
		return
	}
	if err := tw.w.WriteByte(FormatVersion); err != nil {
		tw.err = err
	}
}

// Record implements Recorder, encoding one reference.
func (tw *encoder) Record(r Ref) {
	tw.RecordBatch([]Ref{r})
}

// RecordBatch implements BatchRecorder and publishes the new count.
func (tw *encoder) RecordBatch(refs []Ref) {
	tw.encode(refs)
	tw.count.Store(tw.n)
}

// encode delta-encodes the whole batch into the open chunk's buffer in
// one pass, cutting chunks as the record bound fills, so the encoder does
// delta bookkeeping — not I/O plumbing — per reference.
func (tw *encoder) encode(refs []Ref) {
	if tw.err != nil {
		return
	}
	tw.writeHeader()
	if tw.err != nil {
		return
	}
	if cap(tw.pending) == 0 {
		tw.pending = make([]byte, 0, frameRecs*(binary.MaxVarintLen64+2))
	}
	for i := range refs {
		r := &refs[i]
		if r.Kind >= numKinds {
			tw.err = errBadKind
			return
		}
		delta := int64(r.Addr - tw.last[r.Kind])
		tw.last[r.Kind] = r.Addr
		tw.pending = append(tw.pending, byte(r.Kind), r.Size)
		tw.pending = binary.AppendVarint(tw.pending, delta)
		tw.pendCnt++
		tw.n++
		if tw.pendCnt >= frameRecs {
			tw.emitChunk()
			if tw.err != nil {
				return
			}
		}
	}
}

// emitChunk frames and writes the open chunk: length varint, payload,
// record-count varint, then a CRC32 over all of the preceding bytes.
func (tw *encoder) emitChunk() {
	if tw.err != nil || tw.pendCnt == 0 {
		return
	}
	lenBuf := binary.AppendUvarint(tw.scratch[:0], uint64(len(tw.pending)))
	crc := crc32.Update(0, crc32.IEEETable, lenBuf)
	crc = crc32.Update(crc, crc32.IEEETable, tw.pending)
	if _, err := tw.w.Write(lenBuf); err != nil {
		tw.err = err
		return
	}
	if _, err := tw.w.Write(tw.pending); err != nil {
		tw.err = err
		return
	}
	cntBuf := binary.AppendUvarint(tw.scratch[:0], uint64(tw.pendCnt))
	crc = crc32.Update(crc, crc32.IEEETable, cntBuf)
	cntBuf = binary.LittleEndian.AppendUint32(cntBuf, crc)
	if _, err := tw.w.Write(cntBuf); err != nil {
		tw.err = err
		return
	}
	tw.pending = tw.pending[:0]
	tw.pendCnt = 0
}

// flush writes the header (if not yet written), frames the open chunk
// and flushes buffered output.
func (tw *encoder) flush() error {
	tw.writeHeader()
	tw.emitChunk()
	if tw.err == nil {
		tw.err = tw.w.Flush()
	}
	return tw.err
}

// close frames the open chunk, writes the zero-length trailer carrying
// the total record count, and flushes.
func (tw *encoder) close() error {
	tw.writeHeader()
	tw.emitChunk()
	if tw.err != nil {
		return tw.err
	}
	buf := binary.AppendUvarint(tw.scratch[:0], 0)
	buf = binary.AppendUvarint(buf, tw.n)
	crc := crc32.Update(0, crc32.IEEETable, buf)
	buf = binary.LittleEndian.AppendUint32(buf, crc)
	if _, err := tw.w.Write(buf); err != nil {
		tw.err = err
		return err
	}
	tw.err = tw.w.Flush()
	return tw.err
}

// Reader decodes a trace file produced by Writer, either version: current
// chunked files are verified chunk by chunk, and legacy version-1 files
// take the unframed path (no checksums; truncation at a record boundary
// is indistinguishable from a clean end).
//
// Errors are sticky: once Read or ReadBatch has returned an error other
// than io.EOF, every later call returns that same error. A damaged chunk
// therefore ends the stream; the reader never resumes past it with
// per-kind address bases that skipped the chunk's records.
type Reader struct {
	r       *bufio.Reader
	version byte
	init    bool
	done    bool
	err     error // first non-EOF error, returned by every later call

	// dec holds the open chunk (version 2) and the per-kind address bases,
	// which carry from chunk to chunk (and serve the version-1 path too).
	dec   chunkDecoder
	count uint64 // records decoded so far, checked against the trailer
	// frame holds the framing bytes being read: a varint for the chunk
	// checksum, or the stored checksum itself. It lives in the Reader so
	// loading a chunk allocates nothing.
	frame [binary.MaxVarintLen64]byte
}

// NewReader returns a Reader decoding from r. The header is validated on
// the first Read call.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: bufio.NewReaderSize(r, 1<<16)}
}

func (tr *Reader) readHeader() error {
	var hdr [HeaderSize]byte
	if _, err := io.ReadFull(tr.r, hdr[:]); err != nil {
		if err == io.EOF {
			return fmt.Errorf("trace: missing header: %w", ErrBadMagic)
		}
		if err == io.ErrUnexpectedEOF {
			return fmt.Errorf("%w: partial header", ErrTruncated)
		}
		return err
	}
	if string(hdr[:len(Magic)]) != Magic {
		return ErrBadMagic
	}
	switch hdr[len(Magic)] {
	case 1, 2:
		tr.version = hdr[len(Magic)]
	default:
		return fmt.Errorf("%w: %d", ErrBadVersion, hdr[len(Magic)])
	}
	tr.init = true
	return nil
}

// readUvarint decodes an unsigned varint of the chunk framing from the
// stream into tr.frame and returns its value and raw bytes, which the
// caller folds into the chunk checksum before the next framing read. EOF
// anywhere inside it — including before its first byte — means the
// trailer was never reached.
func (tr *Reader) readUvarint(what string) (uint64, []byte, error) {
	var v uint64
	var shift uint
	for i := 0; ; i++ {
		b, err := tr.r.ReadByte()
		if err != nil {
			if err == io.EOF {
				return 0, nil, fmt.Errorf("%w: EOF in %s", ErrTruncated, what)
			}
			return 0, nil, err
		}
		if i == binary.MaxVarintLen64-1 && b > 1 {
			return 0, nil, fmt.Errorf("%w: varint overflow in %s", ErrCorrupt, what)
		}
		tr.frame[i] = b
		v |= uint64(b&0x7f) << shift
		if b < 0x80 {
			return v, tr.frame[:i+1], nil
		}
		shift += 7
	}
}

// loadChunk reads and verifies the next chunk, leaving its payload ready
// for decoding. At the trailer it validates the total record count,
// rejects trailing bytes, and returns io.EOF.
func (tr *Reader) loadChunk() error {
	plen, raw, err := tr.readUvarint("chunk length")
	if err != nil {
		return err
	}
	crc := crc32.Update(0, crc32.IEEETable, raw)
	if plen == 0 {
		total, raw, err := tr.readUvarint("trailer")
		if err != nil {
			return err
		}
		crc = crc32.Update(crc, crc32.IEEETable, raw)
		if err := tr.checkCRC(crc, "trailer"); err != nil {
			return err
		}
		if total != tr.count {
			return fmt.Errorf("%w: trailer records %d records, file holds %d",
				ErrCorrupt, total, tr.count)
		}
		if _, err := tr.r.ReadByte(); err == nil {
			return fmt.Errorf("%w: data after trailer", ErrCorrupt)
		} else if err != io.EOF {
			return err
		}
		tr.done = true
		return io.EOF
	}
	if plen > maxFramePayload {
		return fmt.Errorf("%w: chunk length %d exceeds bound", ErrCorrupt, plen)
	}
	if cap(tr.dec.p) < int(plen) {
		tr.dec.p = make([]byte, plen)
	}
	p := tr.dec.p[:plen]
	if _, err := io.ReadFull(tr.r, p); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return fmt.Errorf("%w: EOF in chunk payload", ErrTruncated)
		}
		return err
	}
	crc = crc32.Update(crc, crc32.IEEETable, p)
	cnt, raw, err := tr.readUvarint("chunk count")
	if err != nil {
		return err
	}
	crc = crc32.Update(crc, crc32.IEEETable, raw)
	if err := tr.checkCRC(crc, "chunk"); err != nil {
		return err
	}
	if cnt == 0 || cnt > maxFrameRecs {
		return fmt.Errorf("%w: chunk record count %d out of range", ErrCorrupt, cnt)
	}
	tr.dec.p, tr.dec.pos, tr.dec.left = p, 0, int(cnt)
	return nil
}

// checkCRC reads the four stored checksum bytes and compares.
func (tr *Reader) checkCRC(crc uint32, what string) error {
	b := tr.frame[:4]
	if _, err := io.ReadFull(tr.r, b); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return fmt.Errorf("%w: EOF in %s checksum", ErrTruncated, what)
		}
		return err
	}
	if got := binary.LittleEndian.Uint32(b); got != crc {
		return fmt.Errorf("%w: %s checksum mismatch", ErrCorrupt, what)
	}
	return nil
}

// chunkDecoder decodes the records of one verified chunk payload. Its
// decode method is the package's one version-2 record loop: Reader keeps
// one decoder whose per-kind bases carry across chunks, and
// MemFile.decodeChunk runs a fresh one per chunk against zero bases.
type chunkDecoder struct {
	p    []byte
	pos  int
	left int              // records of p not yet decoded
	base [numKinds]uint64 // last address per kind: the delta bases
}

// decode decodes len(dst) records, at most d.left, into dst and returns
// how many it delivered. The checksum already passed, so a malformed
// record means the count and payload disagree — corruption the CRC
// happened to miss, or a writer bug — and decode returns ErrCorrupt with
// the records before it. A chunk whose last record leaves payload bytes
// unconsumed is corrupt too; that last record is not delivered.
func (d *chunkDecoder) decode(dst []Ref) (int, error) {
	p, pos, base := d.p, d.pos, d.base
	var err error
	n := 0
	for ; n < len(dst); n++ {
		if pos+2 > len(p) {
			err = fmt.Errorf("%w: chunk payload underrun", ErrCorrupt)
			break
		}
		kb, size := p[pos], p[pos+1]
		if kb >= byte(numKinds) {
			err = fmt.Errorf("%w: %v", ErrCorrupt, errBadKind)
			break
		}
		pos += 2
		// Zigzag varint address delta, with the 1- to 3-byte encodings
		// (all but a handful of the paper workloads' deltas) inline.
		var ux uint64
		if b := p[pos:]; len(b) > 0 && b[0] < 0x80 {
			ux = uint64(b[0])
			pos++
		} else if len(b) > 1 && b[1] < 0x80 {
			ux = uint64(b[0]&0x7f) | uint64(b[1])<<7
			pos += 2
		} else if len(b) > 2 && b[2] < 0x80 {
			ux = uint64(b[0]&0x7f) | uint64(b[1]&0x7f)<<7 | uint64(b[2])<<14
			pos += 3
		} else {
			v, m := binary.Uvarint(b)
			if m <= 0 {
				err = fmt.Errorf("%w: bad address delta", ErrCorrupt)
				break
			}
			ux = v
			pos += m
		}
		base[kb] += ux>>1 ^ -(ux & 1)
		dst[n] = Ref{Kind: Kind(kb), Addr: base[kb], Size: size}
	}
	d.pos, d.base = pos, base
	d.left -= n
	if err == nil && d.left == 0 && pos != len(p) {
		n--
		err = fmt.Errorf("%w: %d unconsumed chunk bytes", ErrCorrupt, len(p)-pos)
	}
	return n, err
}

// Read decodes the next record. It returns io.EOF at the end of the
// trace; a trace that ends without its trailer returns an error matching
// ErrTruncated, and one whose bytes fail verification returns an error
// matching ErrCorrupt. Errors are sticky (see Reader).
func (tr *Reader) Read() (Ref, error) {
	var one [1]Ref
	if _, err := tr.ReadBatch(one[:]); err != nil {
		return Ref{}, err
	}
	return one[0], nil
}

// readV1 is the legacy unframed decode path.
func (tr *Reader) readV1() (Ref, error) {
	kb, err := tr.r.ReadByte()
	if err != nil {
		return Ref{}, err // io.EOF here is the clean end of trace
	}
	if Kind(kb) >= numKinds {
		return Ref{}, fmt.Errorf("%w: %v", ErrCorrupt, errBadKind)
	}
	size, err := tr.r.ReadByte()
	if err != nil {
		return Ref{}, truncatedV1(err)
	}
	// A delta that overflows 64 bits is damage (ErrCorrupt), an EOF in it
	// a cut (ErrTruncated), exactly as in the version-2 framing.
	u, _, err := tr.readUvarint("address delta")
	if err != nil {
		return Ref{}, err
	}
	delta := u >> 1
	if u&1 != 0 {
		delta = ^delta
	}
	k := Kind(kb)
	tr.dec.base[k] += delta
	return Ref{Kind: k, Addr: tr.dec.base[k], Size: size}, nil
}

// ReadBatch decodes up to len(buf) records into buf, returning the number
// decoded. At the clean end of the trace it returns the final short count
// with a nil error, then (0, io.EOF) on the next call; any other error is
// returned alongside the records decoded before it, and again, with no
// records, by every later call (errors are sticky, see Reader). A version-2
// trace decodes each verified chunk's records in one pass.
func (tr *Reader) ReadBatch(buf []Ref) (int, error) {
	if tr.err != nil {
		return 0, tr.err
	}
	n, err := tr.readBatch(buf)
	if err == io.EOF && n > 0 {
		err = nil
	}
	if err != nil && err != io.EOF {
		tr.err = err
	}
	return n, err
}

func (tr *Reader) readBatch(buf []Ref) (int, error) {
	if !tr.init {
		if err := tr.readHeader(); err != nil {
			return 0, err
		}
	}
	n := 0
	if tr.version == 1 {
		for ; n < len(buf); n++ {
			r, err := tr.readV1()
			if err != nil {
				return n, err
			}
			buf[n] = r
		}
		return n, nil
	}
	for n < len(buf) {
		if tr.dec.left == 0 {
			if tr.done {
				return n, io.EOF
			}
			if err := tr.loadChunk(); err != nil {
				return n, err
			}
		}
		k, err := tr.dec.decode(buf[n:min(len(buf), n+tr.dec.left)])
		n += k
		tr.count += uint64(k)
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// ForEach decodes the whole remaining trace, invoking fn per record.
func (tr *Reader) ForEach(fn func(Ref) error) error {
	for {
		r, err := tr.Read()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if err := fn(r); err != nil {
			return err
		}
	}
}

// ForEachBatch decodes the whole remaining trace in chunks of the given
// size (<=0 selects DefaultChunk), invoking fn once per chunk. Replaying a
// trace through a BatchRecorder this way is equivalent to ForEach but pays
// one callback per chunk instead of per record.
func (tr *Reader) ForEachBatch(chunk int, fn func([]Ref) error) error {
	if chunk <= 0 {
		chunk = DefaultChunk
	}
	buf := make([]Ref, chunk)
	for {
		n, err := tr.ReadBatch(buf)
		if n > 0 {
			if ferr := fn(buf[:n]); ferr != nil {
				return ferr
			}
		}
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

func truncatedV1(err error) error {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return fmt.Errorf("%w: EOF mid-record", ErrTruncated)
	}
	return err
}
