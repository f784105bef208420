package store

import (
	"encoding/binary"
	"fmt"

	"zerber/internal/field"
	"zerber/internal/merging"
	"zerber/internal/posting"
)

// Record codec for the Disk engine's log.
//
// The log is a sequence of wal frames (length + payload + CRC-32,
// see internal/wal). One frame is one atomic mutation batch: either every
// record in a frame is applied on replay or — if the frame is torn or its
// checksum fails — none are, which is what makes multi-list ApplyDeltas
// all-or-nothing across a crash. Records inside a frame are fixed-width
// per opcode, little endian:
//
//	upsert  op(1) lid(4) gid(8) group(4) y(8)   = 25 bytes
//	delete  op(1) lid(4) gid(8)                 = 13 bytes
//	drop    op(1) lid(4)                        = 5 bytes
//
// A compaction snapshot is upsert records only, each list's in its
// stored order.
const (
	segOpUpsert byte = 1
	segOpDelete byte = 2
	segOpDrop   byte = 3
)

const (
	segUpsertSize = 1 + 4 + 8 + 4 + 8
	segDeleteSize = 1 + 4 + 8
	segDropSize   = 1 + 4
)

// segRec is one decoded log record.
type segRec struct {
	op    byte
	lid   merging.ListID
	gid   posting.GlobalID
	group uint32
	y     field.Element
}

func appendUpsertRec(buf []byte, lid merging.ListID, sh posting.EncryptedShare) []byte {
	buf = append(buf, segOpUpsert)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(lid))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(sh.GlobalID))
	buf = binary.LittleEndian.AppendUint32(buf, sh.Group)
	buf = binary.LittleEndian.AppendUint64(buf, sh.Y.Uint64())
	return buf
}

func appendDeleteRec(buf []byte, lid merging.ListID, gid posting.GlobalID) []byte {
	buf = append(buf, segOpDelete)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(lid))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(gid))
	return buf
}

func appendDropRec(buf []byte, lid merging.ListID) []byte {
	buf = append(buf, segOpDrop)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(lid))
	return buf
}

// parseSegFrame decodes every record in one frame payload. The whole
// frame is parsed before anything is applied: a frame that fails here is
// rejected in full, preserving batch atomicity.
func parseSegFrame(payload []byte) ([]segRec, error) {
	if len(payload) == 0 {
		return nil, fmt.Errorf("store: empty log frame")
	}
	recs := make([]segRec, 0, len(payload)/segDeleteSize+1)
	off := 0
	for off < len(payload) {
		rec := segRec{op: payload[off]}
		switch rec.op {
		case segOpUpsert:
			if off+segUpsertSize > len(payload) {
				return nil, fmt.Errorf("store: truncated upsert record at %d", off)
			}
			rec.lid = merging.ListID(binary.LittleEndian.Uint32(payload[off+1:]))
			rec.gid = posting.GlobalID(binary.LittleEndian.Uint64(payload[off+5:]))
			rec.group = binary.LittleEndian.Uint32(payload[off+13:])
			y, err := field.Check(binary.LittleEndian.Uint64(payload[off+17:]))
			if err != nil {
				return nil, fmt.Errorf("store: upsert record at %d: %w", off, err)
			}
			rec.y = y
			off += segUpsertSize
		case segOpDelete:
			if off+segDeleteSize > len(payload) {
				return nil, fmt.Errorf("store: truncated delete record at %d", off)
			}
			rec.lid = merging.ListID(binary.LittleEndian.Uint32(payload[off+1:]))
			rec.gid = posting.GlobalID(binary.LittleEndian.Uint64(payload[off+5:]))
			off += segDeleteSize
		case segOpDrop:
			if off+segDropSize > len(payload) {
				return nil, fmt.Errorf("store: truncated drop record at %d", off)
			}
			rec.lid = merging.ListID(binary.LittleEndian.Uint32(payload[off+1:]))
			off += segDropSize
		default:
			return nil, fmt.Errorf("store: unknown log opcode %d at %d", rec.op, off)
		}
		recs = append(recs, rec)
	}
	return recs, nil
}
