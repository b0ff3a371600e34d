// Package store is the durable answer store: an append-only write-ahead
// log of crowd answers and session events plus periodic snapshot
// compaction. Crowd answers are the most expensive resource the system
// has — they are collected from humans over days (§6.2–6.3 of the paper)
// and paid for — so a process restart must never re-ask a question that
// was already answered. The store makes the engine's CrowdCache durable:
// every answer is appended to the WAL before the run proceeds, and
// recovery replays the log (truncating a torn final record) into a
// core.Cache that reprimes a restarted engine via Config.Prime.
//
// On-disk layout of a store directory:
//
//	wal.log       append-only log: 8-byte magic, then framed records
//	snapshot.snap compacted state: same framing, answers deduplicated
//
// Each record is framed as
//
//	uint32 LE payload length | uint32 LE CRC32(payload) | payload
//
// and the payload is a type byte followed by type-specific fields
// (strings as uvarint length + bytes, supports as 8-byte LE float bits).
// See DESIGN.md, "Durability".
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"

	"oassis/internal/core"
)

// RecordType discriminates WAL record payloads.
type RecordType byte

// Record types. The store writes RecAnswer, RecSession, RecJoin and
// RecPlan. RecClassified and RecIssued are retired: no store writes them
// any more, but logs written earlier may still hold them, so the codec
// keeps them and recovery skips them.
const (
	// RecAnswer is one crowd answer: (question, member, support, kind,
	// counted), exactly what core.Cache holds plus the counted flag.
	RecAnswer RecordType = 1
	// RecClassified (retired) was a classification event: a lattice node
	// explicitly marked significant or insignificant. Replaying the
	// answers re-derives it.
	RecClassified RecordType = 2
	// RecSession binds the store to a query (the canonical query text);
	// reopening against a different query is refused.
	RecSession RecordType = 3
	// RecJoin records a crowd member claiming a slot (member ID and
	// display name), so a restarted server restores its roster.
	RecJoin RecordType = 4
	// RecIssued (retired) recorded a question handed out to a member
	// before its answer arrived. A restarted engine replaying the
	// answers reaches an unanswered question again by itself.
	RecIssued RecordType = 5
	// RecPlan binds the store to a plan fingerprint (the content address
	// of the compiled plan the session executes). Store.Bind compares it
	// to the fingerprint of a new run, so domain drift — the same query
	// recompiling to a different plan because the ontology changed — is
	// refused instead of replaying answers into a different assignment
	// space.
	RecPlan RecordType = 6
)

// String returns the record type's metric-label name.
func (t RecordType) String() string {
	switch t {
	case RecAnswer:
		return "answer"
	case RecClassified:
		return "classified"
	case RecSession:
		return "session"
	case RecJoin:
		return "join"
	case RecIssued:
		return "issued"
	case RecPlan:
		return "plan"
	default:
		return "unknown"
	}
}

// Record is the decoded form of one WAL entry. Fields are a union over the
// record types: Question/Member/Support/Kind/Counted for RecAnswer,
// Node/Significant for RecClassified, Note for RecSession (query text),
// RecJoin (display name, with Member holding the slot ID) and RecPlan
// (plan fingerprint).
type Record struct {
	Type RecordType

	Question string
	Member   string
	Support  float64
	Kind     core.QuestionKind
	Counted  bool

	Node        string
	Significant bool

	Note string
}

// MaxRecordSize bounds a record payload; larger length prefixes are
// treated as corruption (they would otherwise let a torn length word
// demand an arbitrary allocation).
const MaxRecordSize = 1 << 20

const frameHeader = 8 // payload length + CRC32

// Decode errors. A torn record is an incomplete final append (crash
// mid-write): recovery truncates it. Corruption is a framing, CRC or
// payload violation: recovery stops there and truncates the rest.
var (
	// ErrTorn reports a record cut short by a crash mid-append.
	ErrTorn = errors.New("store: torn record")
	// ErrCorrupt reports a record that fails its CRC or payload checks.
	ErrCorrupt = errors.New("store: corrupt record")
)

// appendString encodes a string as uvarint length + bytes.
func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// encodePayload renders the record's payload (no framing).
func encodePayload(r Record) []byte {
	b := []byte{byte(r.Type)}
	switch r.Type {
	case RecAnswer:
		b = appendString(b, r.Question)
		b = appendString(b, r.Member)
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(r.Support))
		b = append(b, byte(r.Kind), boolByte(r.Counted))
	case RecClassified:
		b = appendString(b, r.Node)
		b = append(b, boolByte(r.Significant))
	case RecSession:
		b = appendString(b, r.Note)
	case RecJoin:
		b = appendString(b, r.Member)
		b = appendString(b, r.Note)
	case RecIssued:
		b = appendString(b, r.Question)
		b = appendString(b, r.Member)
	case RecPlan:
		b = appendString(b, r.Note)
	}
	return b
}

// EncodeRecord frames the record for appending to a log.
func EncodeRecord(r Record) []byte {
	payload := encodePayload(r)
	b := make([]byte, 0, frameHeader+len(payload))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(payload)))
	b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(payload))
	return append(b, payload...)
}

func boolByte(v bool) byte {
	if v {
		return 1
	}
	return 0
}

// decodeString reads a uvarint-prefixed string, rejecting lengths that
// exceed the remaining payload before allocating. Non-minimal uvarint
// encodings are rejected too: every record has exactly one valid byte
// representation, so recovery offsets are never ambiguous.
func decodeString(b []byte) (string, []byte, error) {
	l, n := binary.Uvarint(b)
	if n <= 0 || n != uvarintLen(l) || l > uint64(len(b)-n) {
		return "", nil, ErrCorrupt
	}
	return string(b[n : n+int(l)]), b[n+int(l):], nil
}

// uvarintLen is the minimal uvarint encoding size of v.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

func decodeBool(b []byte) (bool, []byte, error) {
	if len(b) < 1 || b[0] > 1 {
		return false, nil, ErrCorrupt
	}
	return b[0] == 1, b[1:], nil
}

// DecodeRecord decodes the first framed record in b, returning the record
// and the number of bytes consumed. It returns ErrTorn when b holds only a
// prefix of a record (the crash-truncated tail of a log) and ErrCorrupt
// when the frame or payload is invalid; len(b) == 0 decodes to (zero, 0,
// nil) with consumed 0, letting callers treat a clean end of log uniformly.
func DecodeRecord(b []byte) (Record, int, error) {
	if len(b) == 0 {
		return Record{}, 0, nil
	}
	if len(b) < frameHeader {
		return Record{}, 0, ErrTorn
	}
	length := binary.LittleEndian.Uint32(b[0:4])
	if length == 0 || length > MaxRecordSize {
		return Record{}, 0, ErrCorrupt
	}
	if uint64(len(b)-frameHeader) < uint64(length) {
		return Record{}, 0, ErrTorn
	}
	payload := b[frameHeader : frameHeader+int(length)]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(b[4:8]) {
		return Record{}, 0, ErrCorrupt
	}
	rec, err := decodePayload(payload)
	if err != nil {
		return Record{}, 0, err
	}
	return rec, frameHeader + int(length), nil
}

func decodePayload(payload []byte) (Record, error) {
	rec := Record{Type: RecordType(payload[0])}
	rest := payload[1:]
	var err error
	switch rec.Type {
	case RecAnswer:
		if rec.Question, rest, err = decodeString(rest); err != nil {
			return Record{}, err
		}
		if rec.Member, rest, err = decodeString(rest); err != nil {
			return Record{}, err
		}
		if len(rest) < 8 {
			return Record{}, ErrCorrupt
		}
		rec.Support = math.Float64frombits(binary.LittleEndian.Uint64(rest[:8]))
		rest = rest[8:]
		if len(rest) < 1 || rest[0] > byte(core.KindPruning) {
			return Record{}, ErrCorrupt
		}
		rec.Kind = core.QuestionKind(rest[0])
		rest = rest[1:]
		if rec.Counted, rest, err = decodeBool(rest); err != nil {
			return Record{}, err
		}
	case RecClassified:
		if rec.Node, rest, err = decodeString(rest); err != nil {
			return Record{}, err
		}
		if rec.Significant, rest, err = decodeBool(rest); err != nil {
			return Record{}, err
		}
	case RecSession:
		if rec.Note, rest, err = decodeString(rest); err != nil {
			return Record{}, err
		}
	case RecJoin:
		if rec.Member, rest, err = decodeString(rest); err != nil {
			return Record{}, err
		}
		if rec.Note, rest, err = decodeString(rest); err != nil {
			return Record{}, err
		}
	case RecIssued:
		if rec.Question, rest, err = decodeString(rest); err != nil {
			return Record{}, err
		}
		if rec.Member, rest, err = decodeString(rest); err != nil {
			return Record{}, err
		}
	case RecPlan:
		if rec.Note, rest, err = decodeString(rest); err != nil {
			return Record{}, err
		}
	default:
		return Record{}, fmt.Errorf("%w: unknown record type %d", ErrCorrupt, rec.Type)
	}
	if len(rest) != 0 {
		return Record{}, ErrCorrupt
	}
	return rec, nil
}
