package charstore

import (
	"bytes"
	"crypto/sha256"
	"encoding/base64"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"stanoise/internal/cell"
	"stanoise/internal/charlib"
	"stanoise/internal/tech"
)

// testCurve builds a small hand-made load curve so store tests never pay
// for real characterisation.
func testCurve(cl *cell.Cell) *charlib.LoadCurve {
	return &charlib.LoadCurve{
		CellName: cl.Name(), State: "A=0", NoisyPin: "A",
		VinMin: -0.24, VinMax: 1.44, VoutMin: -0.24, VoutMax: 1.44,
		NVin: 2, NVout: 2,
		I: []float64{1e-3, 2e-3, -3e-3, 4e-3},
	}
}

func openStore(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestStorePutGetRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	cl := cell.MustNew(tech.Tech130(), "INV", 1)
	st := cell.State{"A": false}
	lc := testCurve(cl)

	if _, ok := s.Get(KindLoadCurve, cl, st, "A", "fp1"); ok {
		t.Fatal("empty store reported a hit")
	}
	if err := s.Put(KindLoadCurve, cl, st, "A", "fp1", lc); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(KindLoadCurve, cl, st, "A", "fp1")
	if !ok {
		t.Fatal("stored entry missed")
	}
	if !reflect.DeepEqual(got, lc) {
		t.Errorf("round trip changed the value: %#v", got)
	}
	// Different options fingerprint, pin or kind must miss.
	if _, ok := s.Get(KindLoadCurve, cl, st, "A", "fp2"); ok {
		t.Error("different options fingerprint hit")
	}
	if _, ok := s.Get(KindPropTable, cl, st, "A", "fp1"); ok {
		t.Error("different kind hit")
	}
	// A different drive strength changes the netlist and therefore the key.
	if _, ok := s.Get(KindLoadCurve, cell.MustNew(tech.Tech130(), "INV", 2), st, "A", "fp1"); ok {
		t.Error("different drive strength hit")
	}
	// A different tech card changes the key too.
	if _, ok := s.Get(KindLoadCurve, cell.MustNew(tech.Tech90(), "INV", 1), st, "A", "fp1"); ok {
		t.Error("different tech card hit")
	}
	// A second store handle on the same directory sees the entry — the
	// cross-process warm-start path.
	s2 := openStore(t, dir)
	if _, ok := s2.Get(KindLoadCurve, cl, st, "A", "fp1"); !ok {
		t.Error("second store handle missed the entry")
	}
	if s2.Len() != 1 {
		t.Errorf("second handle counts %d entries, want 1", s2.Len())
	}
}

// TestStoreLenCountsEveryWriter: two handles on one directory stand in for
// two processes sharing a store. Each writes a distinct artefact, and every
// handle — both writers and a freshly opened third — must count both,
// because the entry files are the store's only record.
func TestStoreLenCountsEveryWriter(t *testing.T) {
	dir := t.TempDir()
	s1, s2 := openStore(t, dir), openStore(t, dir)
	st := cell.State{"A": false}
	for i, s := range []*Store{s1, s2} {
		cl := cell.MustNew(tech.Tech130(), "INV", 1+i)
		if err := s.Put(KindLoadCurve, cl, st, "A", "fp", testCurve(cl)); err != nil {
			t.Fatal(err)
		}
	}
	for name, s := range map[string]*Store{"first writer": s1, "second writer": s2, "fresh handle": openStore(t, dir)} {
		if n := s.Len(); n != 2 {
			t.Errorf("%s counts %d entries, want 2", name, n)
		}
	}
}

// entryPath locates the single entry file of a one-entry store.
func entryPath(t *testing.T, s *Store) string {
	t.Helper()
	var path string
	s.walkObjects(func(_, p string) bool { path = p; return false })
	if path == "" {
		t.Fatal("no entry file found")
	}
	return path
}

func TestStoreTruncatedEntryFallsBack(t *testing.T) {
	s := openStore(t, t.TempDir())
	cl := cell.MustNew(tech.Tech130(), "INV", 1)
	st := cell.State{"A": false}
	if err := s.Put(KindLoadCurve, cl, st, "A", "fp", testCurve(cl)); err != nil {
		t.Fatal(err)
	}
	path := entryPath(t, s)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(KindLoadCurve, cl, st, "A", "fp"); ok {
		t.Fatal("truncated entry was served")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Error("truncated entry file was not removed")
	}
	// The store keeps working: re-put and read back.
	if err := s.Put(KindLoadCurve, cl, st, "A", "fp", testCurve(cl)); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(KindLoadCurve, cl, st, "A", "fp"); !ok {
		t.Error("store did not recover after re-put")
	}
}

func TestStoreCorruptedEntryFallsBack(t *testing.T) {
	s := openStore(t, t.TempDir())
	cl := cell.MustNew(tech.Tech130(), "INV", 1)
	st := cell.State{"A": false}
	if err := s.Put(KindLoadCurve, cl, st, "A", "fp", testCurve(cl)); err != nil {
		t.Fatal(err)
	}
	path := entryPath(t, s)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(KindLoadCurve, cl, st, "A", "fp"); ok {
		t.Fatal("corrupted entry was served")
	}
}

func TestStoreModelVersionMismatchFallsBack(t *testing.T) {
	s := openStore(t, t.TempDir())
	cl := cell.MustNew(tech.Tech130(), "INV", 1)
	st := cell.State{"A": false}
	lc := testCurve(cl)
	tag, payload, _ := encodeArtefact(lc)

	// Simulate an entry written by a previous model generation: same key
	// recipe, older model version in the container.
	key, err := Key(KindLoadCurve, cl, st, "A", "fp")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.writeEntry(key, tag, "0-ancient", payload); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(KindLoadCurve, cl, st, "A", "fp"); ok {
		t.Fatal("entry from another model generation was served")
	}
	// GC reclaims it.
	if removed := s.GC(); removed != 1 {
		t.Errorf("GC removed %d entries, want 1", removed)
	}
	if s.Len() != 0 {
		t.Errorf("store still holds %d entries after GC", s.Len())
	}
}

// TestStoreIgnoresLegacyIndex: older builds kept an index.json beside the
// entry files. Whatever such a file holds — garbage, another schema, or a
// valid but stale listing — the store must open, serve and count its
// entries from the entry files alone, and leave the file as it found it
// so an older binary sharing the directory keeps working.
func TestStoreIgnoresLegacyIndex(t *testing.T) {
	cl := cell.MustNew(tech.Tech130(), "INV", 1)
	st := cell.State{"A": false}
	for name, legacy := range map[string]string{
		"unparsable":   "{definitely not json",
		"wrong schema": `{"schema": 999, "entries": {}}`,
		"stale":        `{"schema": 1, "entries": {}}`,
	} {
		dir := t.TempDir()
		if err := openStore(t, dir).Put(KindLoadCurve, cl, st, "A", "fp", testCurve(cl)); err != nil {
			t.Fatal(err)
		}
		index := filepath.Join(dir, "index.json")
		if err := os.WriteFile(index, []byte(legacy), 0o644); err != nil {
			t.Fatal(err)
		}
		s := openStore(t, dir)
		if _, ok := s.Get(KindLoadCurve, cl, st, "A", "fp"); !ok {
			t.Errorf("%s index: entry missed", name)
		}
		if n := s.Len(); n != 1 {
			t.Errorf("%s index: store counts %d entries, want 1", name, n)
		}
		if err := s.Put(KindLoadCurve, cl, st, "B", "fp", testCurve(cl)); err != nil {
			t.Fatal(err)
		}
		if raw, err := os.ReadFile(index); err != nil || string(raw) != legacy {
			t.Errorf("%s index: legacy file changed to %q (%v)", name, raw, err)
		}
	}
}

// TestStoreKindTagTamperFallsBack: the kind tag sits outside the payload
// checksum, so a flipped tag must read as a damaged miss — never as a
// wrong-typed value that panics the caller's type assertion.
func TestStoreKindTagTamperFallsBack(t *testing.T) {
	s := openStore(t, t.TempDir())
	cl := cell.MustNew(tech.Tech130(), "INV", 1)
	st := cell.State{"A": false}
	if err := s.Put(KindLoadCurve, cl, st, "A", "fp", testCurve(cl)); err != nil {
		t.Fatal(err)
	}
	path := entryPath(t, s)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[6] = kindThevenin // a 5-float driver payload would even decode cleanly
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if v, ok := s.Get(KindLoadCurve, cl, st, "A", "fp"); ok {
		t.Fatalf("tampered kind tag served a %T", v)
	}
}

// TestImportRejectsCorruptedPayloads: a bit-flip inside a bundle payload
// must lose that entry on import, not re-checksum it as valid.
func TestImportRejectsCorruptedPayloads(t *testing.T) {
	src := openStore(t, t.TempDir())
	cl := cell.MustNew(tech.Tech130(), "INV", 1)
	st := cell.State{"A": false}
	if err := src.Put(KindLoadCurve, cl, st, "A", "fp", testCurve(cl)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := src.Export(&buf); err != nil {
		t.Fatal(err)
	}
	var b struct {
		Schema  int    `json:"schema"`
		Model   string `json:"model_version"`
		Entries []struct {
			Key     string `json:"key"`
			Kind    string `json:"kind"`
			Payload []byte `json:"payload"`
			Sum     string `json:"sum"`
		} `json:"entries"`
	}
	if err := json.Unmarshal(buf.Bytes(), &b); err != nil {
		t.Fatal(err)
	}
	// Flip one float bit: still shape-valid, numerically wrong.
	b.Entries[0].Payload[len(b.Entries[0].Payload)-1] ^= 0x01
	tampered, err := json.Marshal(&b)
	if err != nil {
		t.Fatal(err)
	}
	dst := openStore(t, t.TempDir())
	n, err := dst.Import(bytes.NewReader(tampered))
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Errorf("imported %d corrupted entries, want 0", n)
	}
	if _, ok := dst.Get(KindLoadCurve, cl, st, "A", "fp"); ok {
		t.Error("corrupted bundle entry is being served")
	}
}

// TestImportRejectsTraversalKeys: bundle keys become file paths, so a
// hostile bundle with "../" keys must not write outside the store.
func TestImportRejectsTraversalKeys(t *testing.T) {
	outside := t.TempDir()
	storeDir := filepath.Join(outside, "store")
	s := openStore(t, storeDir)
	cl := cell.MustNew(tech.Tech130(), "INV", 1)
	_, payload, _ := encodeArtefact(testCurve(cl))
	sum := jsonSum(payload)
	bundle := `{"schema":1,"model_version":"` + ModelVersion + `","entries":[` +
		`{"key":"../../escape","kind":"lc","payload":"` + jsonB64(payload) + `","sum":"` + sum + `"}]}`
	n, err := s.Import(strings.NewReader(bundle))
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Errorf("imported %d traversal-keyed entries, want 0", n)
	}
	if _, err := os.Stat(filepath.Join(outside, "escape")); !os.IsNotExist(err) {
		t.Fatal("traversal key escaped the store directory")
	}
	// Non-hex keys are equally refused at the read side.
	if _, ok := s.getByKey("../../escape", kindLoadCurve); ok {
		t.Error("traversal key readable")
	}
}

// TestStoreIgnoresTempFiles: another process's in-flight temp files must
// be invisible to Len/GC/Export — never counted, never removed (a removal
// would break that process's rename).
func TestStoreIgnoresTempFiles(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	cl := cell.MustNew(tech.Tech130(), "INV", 1)
	st := cell.State{"A": false}
	if err := s.Put(KindLoadCurve, cl, st, "A", "fp", testCurve(cl)); err != nil {
		t.Fatal(err)
	}
	shard := filepath.Dir(entryPath(t, s))
	tmp := filepath.Join(shard, ".tmp-inflight")
	if err := os.WriteFile(tmp, []byte("partial write"), 0o600); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 1 {
		t.Errorf("store counts %d entries, want 1 (temp file counted?)", s.Len())
	}
	if removed := s.GC(); removed != 0 {
		t.Errorf("GC reclaimed %d files, want 0", removed)
	}
	if _, err := os.Stat(tmp); err != nil {
		t.Errorf("in-flight temp file was removed: %v", err)
	}
	var bundle bytes.Buffer
	if err := s.Export(&bundle); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(bundle.String(), ".tmp-") {
		t.Error("export shipped a temp file")
	}
}

// TestStoreConcurrentWriters hammers one key (and a set of distinct keys)
// from many goroutines across two independent store handles — the
// same-directory multi-process scenario. Every write must land whole: the
// final Get must validate and decode.
func TestStoreConcurrentWriters(t *testing.T) {
	dir := t.TempDir()
	s1 := openStore(t, dir)
	s2 := openStore(t, dir)
	tt := tech.Tech130()
	st := cell.State{"A": false}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		for _, s := range []*Store{s1, s2} {
			wg.Add(1)
			go func(s *Store, g int) {
				defer wg.Done()
				cl := cell.MustNew(tt, "INV", 1)
				for i := 0; i < 10; i++ {
					// Same key every time (content-addressed: same bytes).
					if err := s.Put(KindLoadCurve, cl, st, "A", "shared", testCurve(cl)); err != nil {
						t.Errorf("put shared: %v", err)
						return
					}
					// And one key unique to the goroutine.
					own := cell.MustNew(tt, "INV", 1+g%4)
					if err := s.Put(KindLoadCurve, own, st, "A", "own", testCurve(own)); err != nil {
						t.Errorf("put own: %v", err)
						return
					}
					if _, ok := s.Get(KindLoadCurve, cl, st, "A", "shared"); !ok {
						t.Error("shared key missed mid-race")
						return
					}
				}
			}(s, g)
		}
	}
	wg.Wait()

	fresh := openStore(t, dir)
	cl := cell.MustNew(tt, "INV", 1)
	if _, ok := fresh.Get(KindLoadCurve, cl, st, "A", "shared"); !ok {
		t.Error("shared entry unreadable after concurrent writes")
	}
	if n := fresh.Len(); n != 5 { // "shared" + 4 distinct drives under "own"
		t.Errorf("store holds %d entries, want 5", n)
	}
}

func TestStoreExportImport(t *testing.T) {
	src := openStore(t, t.TempDir())
	tt := tech.Tech130()
	st := cell.State{"A": false}
	cl1 := cell.MustNew(tt, "INV", 1)
	cl2 := cell.MustNew(tt, "INV", 2)
	if err := src.Put(KindLoadCurve, cl1, st, "A", "fp", testCurve(cl1)); err != nil {
		t.Fatal(err)
	}
	if err := src.Put(KindLoadCurve, cl2, st, "A", "fp", testCurve(cl2)); err != nil {
		t.Fatal(err)
	}

	var bundle bytes.Buffer
	if err := src.Export(&bundle); err != nil {
		t.Fatal(err)
	}

	dst := openStore(t, t.TempDir())
	n, err := dst.Import(bytes.NewReader(bundle.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("imported %d entries, want 2", n)
	}
	got, ok := dst.Get(KindLoadCurve, cl1, st, "A", "fp")
	if !ok {
		t.Fatal("imported entry missed")
	}
	if !reflect.DeepEqual(got, testCurve(cl1)) {
		t.Error("imported entry decoded differently")
	}

	// A bundle from another model generation is refused.
	wrong := bytes.Replace(bundle.Bytes(),
		[]byte(`"model_version": "`+ModelVersion+`"`),
		[]byte(`"model_version": "0-ancient"`), 1)
	if _, err := openStore(t, t.TempDir()).Import(bytes.NewReader(wrong)); err == nil {
		t.Error("bundle from another model version imported without error")
	}
	// Garbage is an error, not a panic.
	if _, err := dst.Import(bytes.NewReader([]byte("not a bundle"))); err == nil {
		t.Error("garbage bundle imported without error")
	}
}

// TestKeyVersioning proves the invalidation rules: a model-version bump,
// or any change to tech card, netlist, state, pin or options, changes the
// key.
func TestKeyVersioning(t *testing.T) {
	base := keyFor("1", "lc", "techFP", "netlist", "A=0", "A", "opts")
	variants := map[string]string{
		"model version": keyFor("2", "lc", "techFP", "netlist", "A=0", "A", "opts"),
		"kind":          keyFor("1", "nrc", "techFP", "netlist", "A=0", "A", "opts"),
		"tech card":     keyFor("1", "lc", "techFP'", "netlist", "A=0", "A", "opts"),
		"netlist":       keyFor("1", "lc", "techFP", "netlist'", "A=0", "A", "opts"),
		"state":         keyFor("1", "lc", "techFP", "netlist", "A=1", "A", "opts"),
		"pin":           keyFor("1", "lc", "techFP", "netlist", "A=0", "B", "opts"),
		"options":       keyFor("1", "lc", "techFP", "netlist", "A=0", "A", "opts'"),
	}
	for what, k := range variants {
		if k == base {
			t.Errorf("changing the %s did not change the key", what)
		}
	}
	// Length-prefixing means shifting bytes between adjacent fields cannot
	// collide.
	if keyFor("1", "lc", "techFPn", "etlist", "A=0", "A", "opts") == base {
		t.Error("field-boundary shift collided")
	}
	if keyFor("1", "lc", "techFP", "netlist", "A=0", "A", "opts") != base {
		t.Error("key derivation is not deterministic")
	}
}

// TestKeyTracksTechCardEdit proves content addressing end-to-end: editing
// one device parameter of a tech card changes every key derived from it.
func TestKeyTracksTechCardEdit(t *testing.T) {
	t1 := tech.Tech130()
	t2 := tech.Tech130()
	t2.NMOS.VT0 += 0.01
	st := cell.State{"A": false}
	k1, err := Key(KindLoadCurve, cell.MustNew(t1, "INV", 1), st, "A", "fp")
	if err != nil {
		t.Fatal(err)
	}
	k2, err := Key(KindLoadCurve, cell.MustNew(t2, "INV", 1), st, "A", "fp")
	if err != nil {
		t.Fatal(err)
	}
	if k1 == k2 {
		t.Error("editing the tech card did not change the key")
	}
}

// jsonB64/jsonSum build hand-crafted bundle entries for hostile-input
// tests.
func jsonB64(b []byte) string { return base64.StdEncoding.EncodeToString(b) }

func jsonSum(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
