package trace

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"runtime"
	"sync"
	"sync/atomic"

	"threadsched/internal/fault"
)

// Sharded zero-copy decode. A version-2 trace is a sequence of
// self-checking chunks, and the per-chunk framing (length, record count,
// CRC32) makes every chunk independently *locatable* by a cheap scan and
// independently *verifiable* by its checksum. The remaining coupling
// between chunks is the delta encoding: each record's address is a delta
// from the previous record of the same kind, and that chain crosses chunk
// boundaries. The sharded reader breaks the chain algebraically instead
// of changing the format: a chunk's records are decoded against
// chunk-local zero bases (address = running delta sum within the chunk),
// each worker reports its chunk's total delta sum per kind, and a serial
// prefix sum over those totals gives every chunk's true base, applied as
// one wrapping add per record at delivery. Addition is associative, so
// the result is bit-identical to the serial decode.
//
// MemFile is the entry point: the file is preloaded (one read, one
// allocation) and the chunk index built by scanning the framing without
// touching payload bytes. Decode then fans out across workers by chunk
// index — CRC verification and varint decoding, the expensive parts, run
// fully in parallel straight out of the file buffer into recycled record
// buffers — while delivery stays in file order on the calling goroutine,
// so order-sensitive consumers (cache hierarchies, stack-distance
// analyzers, re-encoders) observe exactly the serial sequence.

// FaultSiteShardChunk is the fault-injection site the sharded decoder
// checks before decoding each chunk (occurrence index = chunk index).
// Injecting delays here deterministically perturbs worker completion
// order, which is how the race suites stress the ordered-delivery merge.
const FaultSiteShardChunk fault.Site = "trace-shard-chunk"

// chunkSpan locates one verified-decodable chunk inside the file buffer.
type chunkSpan struct {
	start   int // offset of the length varint; the chunk CRC covers from here
	payload int // offset of the first payload byte
	plen    int // payload length in bytes
	count   int // records in the chunk (1..maxFrameRecs, validated at scan)
	crcOff  int // offset of the stored little-endian CRC32
}

// MemFile is a trace file loaded into memory with its chunk index built,
// ready for sharded decoding. The zero value is not usable; construct
// with LoadFile or NewMemFile. A MemFile is immutable after construction
// and safe for concurrent use.
//
// Version-1 files (no framing) carry no index; every MemFile method
// falls back to the serial Reader over the in-memory bytes for them.
type MemFile struct {
	data    []byte
	version byte
	chunks  []chunkSpan
	total   uint64 // trailer record count (v2)
	maxCnt  int    // largest chunk record count, sizes decode buffers
	inj     *fault.Injector
}

// LoadFile preloads the named trace file and builds its chunk index.
// The whole file is resident afterwards; for multi-gigabyte traces on
// memory-constrained hosts, the streaming Reader remains the right tool.
func LoadFile(path string) (*MemFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return NewMemFile(data)
}

// NewMemFile builds the chunk index over an in-memory trace image. The
// scan validates the header, the framing geometry (lengths, counts,
// bounds), and the trailer's total record count; chunk checksums are
// deliberately left to decode time, where they verify in parallel. The
// MemFile aliases data, which the caller must not mutate afterwards.
func NewMemFile(data []byte) (*MemFile, error) {
	f := &MemFile{data: data}
	if len(data) == 0 {
		return nil, fmt.Errorf("trace: missing header: %w", ErrBadMagic)
	}
	if len(data) < HeaderSize {
		return nil, fmt.Errorf("%w: partial header", ErrTruncated)
	}
	if string(data[:len(Magic)]) != Magic {
		return nil, ErrBadMagic
	}
	switch v := data[len(Magic)]; v {
	case 1, 2:
		f.version = v
	default:
		return nil, fmt.Errorf("%w: %d", ErrBadVersion, data[len(Magic)])
	}
	if f.version == 1 {
		return f, nil // unframed: no index, serial fallback only
	}
	if err := f.scanChunks(); err != nil {
		return nil, err
	}
	return f, nil
}

// memUvarint decodes a uvarint at data[off:], mirroring the streaming
// reader's truncation/overflow diagnostics.
func memUvarint(data []byte, off int, what string) (uint64, int, error) {
	v, n := binary.Uvarint(data[off:])
	switch {
	case n > 0:
		return v, off + n, nil
	case n == 0:
		return 0, 0, fmt.Errorf("%w: EOF in %s", ErrTruncated, what)
	default:
		return 0, 0, fmt.Errorf("%w: varint overflow in %s", ErrCorrupt, what)
	}
}

// scanChunks walks the chunk framing once, recording spans. It reads only
// the frame fields (two varints and the fixed-size CRC per chunk), never
// the payload, so indexing a file costs a few bytes of work per chunk.
func (f *MemFile) scanChunks() error {
	data := f.data
	off := HeaderSize
	var sum uint64
	for {
		start := off
		plen, next, err := memUvarint(data, off, "chunk length")
		if err != nil {
			return err
		}
		off = next
		if plen == 0 {
			total, next, err := memUvarint(data, off, "trailer")
			if err != nil {
				return err
			}
			off = next
			if len(data)-off < 4 {
				return fmt.Errorf("%w: EOF in trailer checksum", ErrTruncated)
			}
			crc := crc32.Checksum(data[start:off], crc32.IEEETable)
			if binary.LittleEndian.Uint32(data[off:]) != crc {
				return fmt.Errorf("%w: trailer checksum mismatch", ErrCorrupt)
			}
			off += 4
			if off != len(data) {
				return fmt.Errorf("%w: data after trailer", ErrCorrupt)
			}
			if total != sum {
				return fmt.Errorf("%w: trailer records %d records, file holds %d",
					ErrCorrupt, total, sum)
			}
			f.total = total
			return nil
		}
		if plen > maxFramePayload {
			return fmt.Errorf("%w: chunk length %d exceeds bound", ErrCorrupt, plen)
		}
		if uint64(len(data)-off) < plen {
			return fmt.Errorf("%w: EOF in chunk payload", ErrTruncated)
		}
		payload := off
		off += int(plen)
		cnt, next, err := memUvarint(data, off, "chunk count")
		if err != nil {
			return err
		}
		off = next
		if cnt == 0 || cnt > maxFrameRecs {
			return fmt.Errorf("%w: chunk record count %d out of range", ErrCorrupt, cnt)
		}
		if len(data)-off < 4 {
			return fmt.Errorf("%w: EOF in chunk checksum", ErrTruncated)
		}
		f.chunks = append(f.chunks, chunkSpan{
			start:   start,
			payload: payload,
			plen:    int(plen),
			count:   int(cnt),
			crcOff:  off,
		})
		off += 4
		sum += cnt
		if int(cnt) > f.maxCnt {
			f.maxCnt = int(cnt)
		}
	}
}

// Inject attaches a deterministic fault injector, checked at the
// FaultSiteShardChunk site once per chunk on the decode workers, and
// returns the MemFile. A nil injector (the default) costs nothing. Like
// everywhere else in the repository, injection perturbs timing only —
// results stay bit-identical, which is exactly what the race suites
// assert.
func (f *MemFile) Inject(in *fault.Injector) *MemFile {
	f.inj = in
	return f
}

// Version reports the file's trace format version.
func (f *MemFile) Version() int { return int(f.version) }

// Chunks reports the number of indexed chunks (zero for version-1 files).
func (f *MemFile) Chunks() int { return len(f.chunks) }

// Records reports the trailer's total record count (zero for version-1
// files, whose format does not carry one).
func (f *MemFile) Records() uint64 { return f.total }

// Size reports the in-memory image size in bytes.
func (f *MemFile) Size() int { return len(f.data) }

// Reader returns a fresh serial Reader over the in-memory image —
// the bit-exactness oracle for the sharded paths, and the fallback for
// version-1 files.
func (f *MemFile) Reader() *Reader {
	return NewReader(bytes.NewReader(f.data))
}

// decodeChunk verifies one chunk's checksum and decodes its records into
// dst (which must hold c.count records) against chunk-local zero bases.
// The returned sums are the chunk's total address delta per kind — the
// carry the prefix-sum fixup threads through to the next chunk.
func (f *MemFile) decodeChunk(c chunkSpan, dst []Ref) (sums [numKinds]uint64, err error) {
	crc := crc32.Checksum(f.data[c.start:c.crcOff], crc32.IEEETable)
	if binary.LittleEndian.Uint32(f.data[c.crcOff:]) != crc {
		return sums, fmt.Errorf("%w: chunk checksum mismatch", ErrCorrupt)
	}
	d := chunkDecoder{p: f.data[c.payload : c.payload+c.plen], left: c.count}
	if _, err := d.decode(dst[:c.count]); err != nil {
		return sums, err
	}
	return d.base, nil
}

// shardResult is one decoded chunk in flight from a worker to the merger.
type shardResult struct {
	idx  int
	refs []Ref
	sums [numKinds]uint64
	err  error
}

// ForEachBatch decodes the whole trace across workers (<=0 selects
// GOMAXPROCS) and delivers each chunk's records, in file order, to fn on
// the calling goroutine. The delivered sequence is bit-identical to the
// serial Reader's; only batch boundaries differ (one call per file
// chunk). fn must not retain the slice. A decode error (ErrCorrupt /
// ErrTruncated, typed exactly as the serial Reader types them) is
// returned after every chunk before the damaged one has been delivered;
// an error from fn stops the decode and is returned as-is.
//
// Version-1 files and single-worker calls take the serial path over the
// in-memory image.
func (f *MemFile) ForEachBatch(workers int, fn func([]Ref) error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if f.version == 1 || workers == 1 || len(f.chunks) < 2 {
		return f.Reader().ForEachBatch(0, fn)
	}
	if workers > len(f.chunks) {
		workers = len(f.chunks)
	}

	// Bounded in-flight window: every claimed chunk holds a buffer, and
	// the worker on the lowest outstanding chunk always already owns one
	// (buffers are acquired before claiming), so the merger can always
	// make progress and the window can never deadlock.
	window := workers * 2
	free := make(chan []Ref, window)
	for i := 0; i < window; i++ {
		free <- make([]Ref, f.maxCnt)
	}
	results := make(chan shardResult, window)
	var (
		next atomic.Int64
		stop atomic.Bool
		wg   sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				buf := <-free
				if stop.Load() {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= len(f.chunks) {
					return
				}
				f.inj.MaybeDelay(FaultSiteShardChunk, uint64(i))
				c := f.chunks[i]
				sums, err := f.decodeChunk(c, buf[:c.count])
				if err != nil {
					stop.Store(true)
				}
				results <- shardResult{idx: i, refs: buf[:c.count], sums: sums, err: err}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(results)
	}()

	// Ordered merge: apply the prefix-sum base fixup and deliver. pending
	// holds out-of-order arrivals; it is bounded by the window.
	var (
		base    [numKinds]uint64
		deliver = 0
		pending = make(map[int]shardResult, window)
		retErr  error
	)
	for res := range results {
		pending[res.idx] = res
		for {
			cur, ok := pending[deliver]
			if !ok {
				break
			}
			delete(pending, deliver)
			deliver++
			if retErr == nil && cur.err != nil {
				retErr = cur.err
				stop.Store(true)
			}
			if retErr == nil {
				refs := cur.refs
				for j := range refs {
					refs[j].Addr += base[refs[j].Kind]
				}
				for k := range base {
					base[k] += cur.sums[k]
				}
				if err := fn(refs); err != nil {
					retErr = err
					stop.Store(true)
				}
			}
			// Recycle even past an error: parked workers may still be
			// waiting on a buffer to notice the stop flag.
			select {
			case free <- cur.refs[:cap(cur.refs)]:
			default:
			}
		}
	}
	return retErr
}
