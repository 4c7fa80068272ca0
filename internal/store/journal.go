package store

import (
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"io"
)

// Journal file layout. The file opens with a fixed magic line naming
// the format generation, then a sequence of independently checksummed
// records:
//
//	[4-byte big-endian payload length][4-byte CRC-32C of payload][payload]
//
// The payload is one JSON envelope (see entry). Appends are a single
// write(2) of the fully assembled frame, so a process crash leaves at
// worst one torn frame at the tail — which the open-time scan detects
// (short frame, or checksum mismatch on the final record) and
// truncates away. A corrupted record in the interior (bit flip on
// disk) fails its checksum but leaves the framing intact, so the scan
// skips it and keeps everything after it.
const (
	journalMagic = "OPMSTORE1\n"
	journalName  = "journal"

	// entryVersion is the record schema generation. Records written
	// by a different generation are skipped on open (counted as
	// stale), never trusted.
	entryVersion = 1

	// maxRecordLen bounds a single payload. A length field above this
	// cannot come from a healthy journal, so the scan treats it as
	// corruption of the framing itself and truncates there.
	maxRecordLen = 64 << 20

	frameHeaderLen = 8
)

// castagnoli is the CRC-32C table (hardware-accelerated on amd64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// entry is the JSON envelope of one journal record.
type entry struct {
	// V is the record schema version (entryVersion at write time).
	V int `json:"v"`
	// Digest is the content address (see Digest).
	Digest string `json:"digest"`
	// Exp and Key record the human-readable provenance of the digest:
	// the sweep family and the job key. They are informational — the
	// digest alone addresses the record.
	Exp string `json:"exp"`
	Key string `json:"key"`
	// Data is the cached result, verbatim.
	Data json.RawMessage `json:"data"`
}

// entryHead is entry without its payload: the four fields json.Marshal
// writes before "data", with the same names and order.
type entryHead struct {
	V      int    `json:"v"`
	Digest string `json:"digest"`
	Exp    string `json:"exp"`
	Key    string `json:"key"`
}

// encodeFrame returns the on-disk bytes of e's record, header and
// payload, built in one buffer: the header's length and CRC-32C are
// written in place once the payload is complete. Only the head fields
// go through json.Marshal; Data is spliced in verbatim as the last
// member. For every record Put writes the payload is byte-identical to
// json.Marshal(e): Put's Data is json.Marshal output, already compact
// and HTML-escaped, and compacting and escaping it is all json.Marshal
// would do to a RawMessage. Compaction rewrites replayed records the
// same way, so a payload keeps the bytes it was read with. An empty
// Data encodes as null, as a nil one does in json.Marshal.
func encodeFrame(e entry) ([]byte, error) {
	head, err := json.Marshal(entryHead{V: e.V, Digest: e.Digest, Exp: e.Exp, Key: e.Key})
	if err != nil {
		return nil, err
	}
	data := []byte(e.Data)
	if len(data) == 0 {
		data = []byte("null")
	}
	const dataMember = `,"data":`
	buf := make([]byte, frameHeaderLen, frameHeaderLen+len(head)+len(dataMember)+len(data))
	buf = append(buf, head[:len(head)-1]...) // drop the closing brace
	buf = append(buf, dataMember...)
	buf = append(buf, data...)
	buf = append(buf, '}')
	payload := buf[frameHeaderLen:]
	binary.BigEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(buf[4:8], crc32.Checksum(payload, castagnoli))
	return buf, nil
}

// scanOutcome is what replaying a journal produced: the live entries
// in first-seen order, and the damage tally.
type scanOutcome struct {
	entries []entry
	// goodEnd is the offset just past the last structurally sound
	// frame; bytes beyond it are torn or unframeable and must be
	// truncated before appending.
	goodEnd int64
	// corrupt counts interior records whose checksum or JSON failed,
	// or that lack a digest or a data member; stale counts records of
	// a different schema version; truncated is the number of tail
	// bytes cut off.
	corrupt   int
	stale     int
	truncated int64
}

// scanJournal replays a journal from r (positioned after the magic,
// with size bytes of records remaining, starting at offset start).
func scanJournal(r io.Reader, start, size int64) scanOutcome {
	out := scanOutcome{goodEnd: start}
	var hdr [frameHeaderLen]byte
	remaining := size
	for remaining >= frameHeaderLen {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			break
		}
		n := int64(binary.BigEndian.Uint32(hdr[0:4]))
		want := binary.BigEndian.Uint32(hdr[4:8])
		if n == 0 || n > maxRecordLen || n > remaining-frameHeaderLen {
			// The length field itself is untrustworthy (torn tail or
			// corrupted framing): nothing beyond this point can be
			// re-framed, so the scan stops and the tail is truncated.
			break
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(r, payload); err != nil {
			break
		}
		remaining -= frameHeaderLen + n
		out.goodEnd += frameHeaderLen + n
		if crc32.Checksum(payload, castagnoli) != want {
			// Framing held but the payload is damaged (bit flip):
			// skip just this record.
			out.corrupt++
			continue
		}
		// Put always writes a data member; a record without one would
		// replay as an empty payload, and a compaction would rewrite it
		// as null, which decodes without error into a zero value.
		var e entry
		if err := json.Unmarshal(payload, &e); err != nil || e.Digest == "" || len(e.Data) == 0 {
			out.corrupt++
			continue
		}
		if e.V != entryVersion {
			out.stale++
			continue
		}
		out.entries = append(out.entries, e)
	}
	out.truncated = size - (out.goodEnd - start)
	return out
}
