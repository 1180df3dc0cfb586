package charstore

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"stanoise/internal/cell"
)

// Store is the on-disk tier of the characterisation cache: a directory of
// content-addressed entry files, which are the store's only record of what
// it holds. It is safe for concurrent use by multiple goroutines and
// multiple *processes* writing the same directory: every file lands via
// temp-file + rename, and because entries are content-addressed, two
// processes racing on the same key are by construction writing the same
// bytes — last rename wins harmlessly.
//
// Every read validates the full entry container (magic, format version,
// model version, kind, length, SHA-256 payload checksum) and the decoded
// table shapes. Any mismatch — truncation, corruption, a format from a
// different generation — degrades to a cache miss (the bad file is
// removed best-effort) and the caller recharacterises; a damaged store can
// slow an analysis down but never change its numbers.
//
// Layout:
//
//	<dir>/objects/<k2>/<key>    entry containers, sharded by key prefix
//	<dir>/leases/<key>.lock     cross-process build leases (see AcquireBuildLease)
//
// An index.json written by an older build is ignored and left in place.
type Store struct {
	dir string

	leaseCounters // cross-process build-lease configuration and statistics
}

// Entry container format constants. formatVersion guards the container
// layout itself; bumping it orphans every existing file (reads miss, GC
// reclaims).
var entryMagic = [4]byte{'S', 'N', 'C', 'S'}

const formatVersion uint16 = 1

// Open opens (creating if needed) a store rooted at dir. It reads nothing
// up front — damaged entries are found and removed by the reads that hit
// them — so Open fails only when the directory itself is unusable.
func Open(dir string) (*Store, error) {
	s := &Store{dir: dir}
	if err := os.MkdirAll(s.objectsDir(), 0o755); err != nil {
		return nil, fmt.Errorf("charstore: opening %s: %w", dir, err)
	}
	return s, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

func (s *Store) objectsDir() string { return filepath.Join(s.dir, "objects") }

func (s *Store) objectPath(key string) string {
	shard := "xx"
	if len(key) >= 2 {
		shard = key[:2]
	}
	return filepath.Join(s.objectsDir(), shard, key)
}

// validKey reports whether key is a canonical content address: exactly 64
// lowercase hex digits, as Key produces. Everything that turns an
// externally supplied key into a path — bundle import above all — must
// check this first, or a bundle carrying "../../..." keys could write
// outside the store directory.
func validKey(key string) bool {
	if len(key) != 64 {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// --- charlib.PersistentStore ---------------------------------------------

// Get returns the decoded artefact for the configuration, or ok=false on
// any miss — absent, truncated, corrupted, wrong model version, undecodable
// — never an error. Misses of the damaged varieties remove the bad file.
// A nil *Store always misses, so a typed-nil handle wired into a cache
// degrades to memory-only instead of panicking.
func (s *Store) Get(kind string, cl *cell.Cell, st cell.State, pin, optsFP string) (any, bool) {
	if s == nil {
		return nil, false
	}
	wantTag, known := kindTag(kind)
	if !known {
		return nil, false
	}
	key, err := Key(kind, cl, st, pin, optsFP)
	if err != nil {
		return nil, false
	}
	return s.getByKey(key, wantTag)
}

// Put persists a freshly built artefact. Unknown kinds and unencodable
// values are skipped silently (persistence is an optimisation, never a
// correctness gate), as is a nil *Store; real I/O failures are reported
// so callers can warn.
func (s *Store) Put(kind string, cl *cell.Cell, st cell.State, pin, optsFP string, v any) error {
	if s == nil {
		return nil
	}
	wantTag, known := kindTag(kind)
	if !known {
		return nil
	}
	tag, payload, ok := encodeArtefact(v)
	if !ok || tag != wantTag {
		return nil
	}
	key, err := Key(kind, cl, st, pin, optsFP)
	if err != nil {
		return err
	}
	return s.writeEntry(key, tag, ModelVersion, payload)
}

// getByKey reads and validates the entry under key, which must be of kind
// wantTag: the tag byte sits outside the payload checksum, so a flipped tag
// (or a mislabelled import) must read as a damaged miss — never as a value
// of the wrong type that panics the caller's assertion.
func (s *Store) getByKey(key string, wantTag byte) (any, bool) {
	if !validKey(key) {
		return nil, false
	}
	path := s.objectPath(key)
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, false
	}
	tag, model, payload, err := parseContainer(raw)
	if err != nil || tag != wantTag {
		// Truncated/corrupted entries (including a wrong kind tag under a
		// kind-derived key) are removed, best-effort, so they stop costing
		// a read per miss.
		os.Remove(path)
		return nil, false
	}
	if model != ModelVersion {
		// Entries from another model generation are left for GC — a
		// rollback to that version would make them valid again.
		return nil, false
	}
	v, err := decodeArtefact(tag, payload)
	if err != nil {
		os.Remove(path)
		return nil, false
	}
	return v, true
}

// writeEntry lands one entry container atomically under key.
func (s *Store) writeEntry(key string, tag byte, model string, payload []byte) error {
	if !validKey(key) {
		return fmt.Errorf("charstore: invalid entry key %q", key)
	}
	container := buildContainer(tag, model, payload)
	path := s.objectPath(key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("charstore: %w", err)
	}
	if err := atomicWrite(path, container); err != nil {
		return fmt.Errorf("charstore: %w", err)
	}
	return nil
}

// atomicWrite lands data at path via a same-directory temp file + rename,
// so concurrent writers and readers never observe a partial file.
func atomicWrite(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return err
	}
	if err := os.Chmod(tmpName, 0o644); err != nil {
		os.Remove(tmpName)
		return err
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return err
	}
	return nil
}

// --- container -----------------------------------------------------------

// buildContainer frames a payload: magic, format version, kind tag, model
// version, length-prefixed payload, SHA-256 payload checksum.
func buildContainer(tag byte, model string, payload []byte) []byte {
	var e enc
	e.b = append(e.b, entryMagic[:]...)
	e.b = binary.LittleEndian.AppendUint16(e.b, formatVersion)
	e.b = append(e.b, tag)
	e.str(model)
	e.uvarint(uint64(len(payload)))
	e.b = append(e.b, payload...)
	sum := sha256.Sum256(payload)
	e.b = append(e.b, sum[:]...)
	return e.b
}

// parseContainer validates a container and returns its tag, model version
// and payload. Every failure mode — short file, wrong magic, future format,
// length mismatch, checksum mismatch — is an error the caller maps to a
// cache miss.
func parseContainer(raw []byte) (tag byte, model string, payload []byte, err error) {
	if len(raw) < 7 || [4]byte(raw[:4]) != entryMagic {
		return 0, "", nil, fmt.Errorf("charstore: not an entry container")
	}
	if v := binary.LittleEndian.Uint16(raw[4:6]); v != formatVersion {
		return 0, "", nil, fmt.Errorf("charstore: entry format version %d, want %d", v, formatVersion)
	}
	tag = raw[6]
	d := &dec{b: raw[7:]}
	model = d.str()
	n := d.uvarint()
	if d.err != nil {
		return 0, "", nil, d.err
	}
	// Bound n before any arithmetic: a corrupted varint near 2^64 would
	// make n+sha256.Size wrap, pass the equality check and panic the
	// slice below — corruption must be an error, never a crash.
	if n > uint64(len(d.b)) || uint64(len(d.b)) != n+sha256.Size {
		return 0, "", nil, fmt.Errorf("charstore: entry length mismatch (%d bytes for %d payload)", len(d.b), n)
	}
	payload = d.b[:n]
	want := d.b[n:]
	sum := sha256.Sum256(payload)
	if [sha256.Size]byte(want) != sum {
		return 0, "", nil, fmt.Errorf("charstore: entry checksum mismatch")
	}
	return tag, model, payload, nil
}

// --- entry files ---------------------------------------------------------

// walkObjects visits every entry file as (key, path) until fn returns
// false.
func (s *Store) walkObjects(fn func(key, path string) bool) {
	shards, err := os.ReadDir(s.objectsDir())
	if err != nil {
		return
	}
	for _, sh := range shards {
		if !sh.IsDir() {
			continue
		}
		files, err := os.ReadDir(filepath.Join(s.objectsDir(), sh.Name()))
		if err != nil {
			continue
		}
		for _, f := range files {
			// Skip another writer's in-flight temp files (and crash
			// leftovers) plus anything that is not a canonical content
			// address: they are not entries, and removing a live temp
			// would break that writer's rename.
			if f.IsDir() || strings.HasPrefix(f.Name(), ".tmp-") || !validKey(f.Name()) {
				continue
			}
			if !fn(f.Name(), filepath.Join(s.objectsDir(), sh.Name(), f.Name())) {
				return
			}
		}
	}
}

// Len returns the number of entry files in the store, whoever wrote them.
// It walks the directory, so it is for reporting, not for hot paths.
func (s *Store) Len() int {
	n := 0
	s.walkObjects(func(string, string) bool { n++; return true })
	return n
}

// GC removes entries that can no longer be read under the current model
// and format versions — orphans from before a version bump and files that
// fail validation — plus expired build leases, returning how many files
// were reclaimed.
func (s *Store) GC() (removed int) {
	var stale []string
	s.walkObjects(func(key, path string) bool {
		raw, rerr := os.ReadFile(path)
		if rerr != nil {
			return true
		}
		tag, model, payload, perr := parseContainer(raw)
		if perr != nil || model != ModelVersion {
			stale = append(stale, path)
			return true
		}
		if _, derr := decodeArtefact(tag, payload); derr != nil {
			stale = append(stale, path)
		}
		return true
	})
	for _, path := range stale {
		if rerr := os.Remove(path); rerr == nil {
			removed++
		}
	}
	return removed + s.cleanStaleLeases()
}

// --- export / import -----------------------------------------------------

// bundleSchema versions the export/import interchange format on its own,
// apart from the entry container's formatVersion, so the local on-disk
// layout can evolve without invalidating previously shipped bundles.
const bundleSchema = 1

// bundleFile is the portable serialisation of a whole store: what
// `libchar -export-store` ships alongside a cell library so another
// machine (or CI) starts warm. Keys are content addresses, so a bundle
// built from the same tech cards, cells and sweep grids is valid anywhere.
type bundleFile struct {
	Schema  int           `json:"schema"`
	Model   string        `json:"model_version"`
	Entries []bundleEntry `json:"entries"`
}

type bundleEntry struct {
	Key     string `json:"key"`
	Kind    string `json:"kind"`
	Cell    string `json:"cell,omitempty"`
	State   string `json:"state,omitempty"`
	Pin     string `json:"pin,omitempty"`
	Payload []byte `json:"payload"` // base64 via encoding/json
	// Sum is the hex SHA-256 of Payload as it left the exporter. Import
	// re-verifies it: without this, a bundle corrupted in transit would be
	// re-checksummed as "valid" on write and silently serve wrong numbers
	// forever (shape-level decoding cannot catch flipped float bits).
	Sum string `json:"sum"`
}

// Export writes every valid entry of the current model version as a
// portable bundle, sorted by key.
func (s *Store) Export(w io.Writer) error {
	b := bundleFile{Schema: bundleSchema, Model: ModelVersion, Entries: []bundleEntry{}}
	s.walkObjects(func(key, path string) bool {
		raw, err := os.ReadFile(path)
		if err != nil {
			return true
		}
		tag, model, payload, err := parseContainer(raw)
		if err != nil || model != ModelVersion {
			return true
		}
		v, err := decodeArtefact(tag, payload)
		if err != nil {
			return true
		}
		cellName, state, pin := artefactIdentity(v)
		sum := sha256.Sum256(payload)
		b.Entries = append(b.Entries, bundleEntry{
			Key: key, Kind: kindName(tag),
			Cell: cellName, State: state, Pin: pin,
			Payload: payload,
			Sum:     hex.EncodeToString(sum[:]),
		})
		return true
	})
	sort.Slice(b.Entries, func(i, j int) bool { return b.Entries[i].Key < b.Entries[j].Key })
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(&b)
}

// Import reads a bundle and stores its entries, returning how many were
// imported. A bundle from a different model version is refused outright
// (its numbers mean something else); individually undecodable entries are
// skipped, never fatal.
func (s *Store) Import(r io.Reader) (int, error) {
	var b bundleFile
	if err := json.NewDecoder(r).Decode(&b); err != nil {
		return 0, fmt.Errorf("charstore: reading bundle: %w", err)
	}
	if b.Schema != bundleSchema {
		return 0, fmt.Errorf("charstore: bundle schema %d, want %d", b.Schema, bundleSchema)
	}
	if b.Model != ModelVersion {
		return 0, fmt.Errorf("charstore: bundle is model version %q, this build is %q — recharacterise instead",
			b.Model, ModelVersion)
	}
	imported := 0
	for _, e := range b.Entries {
		tag, known := kindTag(e.Kind)
		if !known {
			continue
		}
		// A non-canonical key would become a path; skip rather than write.
		if !validKey(e.Key) {
			continue
		}
		// Verify the exporter's checksum before trusting the payload — a
		// bundle damaged in transit must lose entries, not corrupt them.
		sum := sha256.Sum256(e.Payload)
		if e.Sum != hex.EncodeToString(sum[:]) {
			continue
		}
		if _, err := decodeArtefact(tag, e.Payload); err != nil {
			continue
		}
		if err := s.writeEntry(e.Key, tag, b.Model, e.Payload); err != nil {
			return imported, err
		}
		imported++
	}
	return imported, nil
}
