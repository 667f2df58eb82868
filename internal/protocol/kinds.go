package protocol

import "encoding/binary"

// Message kinds. Committee control, landmark growth, and storage/search
// each get a range; simnet delivers them all through the same inboxes.
const (
	// KindCInvite invites the recipient into a committee.
	// Item = committee id, Aux = packInvite(base round, mode, piece index),
	// Aux2 = searcher id (search mode) or item length (store mode),
	// IDs = roster, Blob = item copy / IDA piece (store) or the 8-byte
	// item key (search mode, where Item carries the op-unique com id).
	KindCInvite uint8 = 0x10
	// KindCCount is the epoch count exchange between committee members.
	// Item = com, Aux = packCount(count, piece index, has piece),
	// Aux2 = item length, Blob = the member's IDA piece (IDA mode only).
	KindCCount uint8 = 0x11
	// KindCHandover tells old members the epoch handover happened.
	// Item = com, Aux = epoch, IDs = new roster (members also present in
	// the new roster do not resign).
	KindCHandover uint8 = 0x12

	// KindLGrow grows a landmark tree by one level.
	// Item = committee id, Aux = packGrow(depth, wave, mode), Aux2 =
	// searcher (search mode). Store mode: IDs = committee roster (Item is
	// the item key). Search mode: Blob = the 8-byte item key, no roster
	// (search landmarks never use it). Aux = growRetire instead makes it
	// a retire: search Item is over, so the recipient drops its
	// membership and landmark task for that committee and forwards the
	// retire to the children the task recruited (Blob = item key).
	KindLGrow uint8 = 0x20

	// KindSInquire asks a sampled node whether it knows item Item.
	// Aux = the inquiring search's committee id (a storage landmark
	// answers each one at most once per registration), Aux2 = searcher
	// id the answer should be reported for.
	KindSInquire uint8 = 0x30
	// KindSFound reports to the searcher that the sender knows item
	// Item's storage committee. IDs = storage roster.
	KindSFound uint8 = 0x31
	// KindSFetch asks a storage committee member for the item bytes.
	KindSFetch uint8 = 0x32
	// KindSData returns the item copy or an IDA piece.
	// Aux = packCount-style (piece index, has piece), Aux2 = item length,
	// Blob = data.
	KindSData uint8 = 0x33

	// KindCacheData answers a search inquiry straight from a hot-key
	// cache (DESIGN.md §10): the full item bytes go to the searcher,
	// short-circuiting the found/fetch/reconstruct leg of Algorithm 4.
	// Item = key, Aux = the serving replica's seed depth, Blob = bytes.
	KindCacheData uint8 = 0x40
	// KindCacheSeed pushes a cached replica to a walk-sample source.
	// Item = key, Aux = the recipient's seed depth, Blob = bytes.
	KindCacheSeed uint8 = 0x41
)

// packInvite encodes (base round, mode, piece index) into Aux.
func packInvite(base int, mode Mode, pieceIdx int) uint64 {
	return uint64(uint32(base)) | uint64(mode)<<32 | uint64(uint16(pieceIdx))<<40
}

func unpackInvite(aux uint64) (base int, mode Mode, pieceIdx int) {
	return int(uint32(aux)), Mode(aux >> 32 & 0xff), int(uint16(aux >> 40))
}

// packCount encodes (sample count, piece index, piece presence) into Aux.
func packCount(count, pieceIdx int, hasPiece bool) uint64 {
	v := uint64(uint32(count)) | uint64(uint16(pieceIdx))<<32
	if hasPiece {
		v |= 1 << 48
	}
	return v
}

func unpackCount(aux uint64) (count, pieceIdx int, hasPiece bool) {
	return int(uint32(aux)), int(uint16(aux >> 32)), aux>>48&1 == 1
}

// packGrow encodes (remaining depth, wave id, mode) into Aux.
func packGrow(depth int, wave int, mode Mode) uint64 {
	return uint64(uint8(depth)) | uint64(uint32(wave))<<8 | uint64(mode)<<40
}

func unpackGrow(aux uint64) (depth int, wave int, mode Mode) {
	return int(uint8(aux)), int(uint32(aux >> 8)), Mode(aux >> 40 & 0xff)
}

// growRetire flags a search-mode KindLGrow as a retire (above the
// packGrow fields).
const growRetire uint64 = 1 << 48

// keyBlob encodes an item key as a message blob (search-mode invites carry
// the key separately from the op-unique committee id).
func keyBlob(key uint64) []byte {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, key)
	return b
}

func blobKey(b []byte) uint64 {
	if len(b) != 8 {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}
