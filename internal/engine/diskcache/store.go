package diskcache

import (
	"container/list"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"time"

	"pathflow/internal/obs"
)

// Key identifies one bundle in the store: the artifact kind plus the
// engine's Merkle-style stage key. Slice fingerprints the input slice
// the stage actually reads (block bodies, CFG shape, recording edges,
// per-block counts — whichever apply); Chain folds in the digests of
// the stage's upstream cache keys, so a change anywhere upstream
// re-keys every dependent bundle; Knob carries the stage's swept
// parameter bits (CA or CR). Identical keys name identical content
// (the pipeline is a pure function of the fingerprints), so concurrent
// writers racing on one key are harmless — last rename wins and both
// payloads are equivalent.
type Key struct {
	Kind               Kind
	Slice, Chain, Knob uint64
}

// filename renders the key as the bundle's file name. The kind appears
// both in the name and in the frame header, so a renamed file still
// fails closed at decode time.
func (k Key) filename() string {
	return fmt.Sprintf("%s-%016x%016x%016x%s", k.Kind, k.Slice, k.Chain, k.Knob, fileSuffix)
}

const (
	fileSuffix = ".pfac"
	tmpSuffix  = ".tmp"
)

// bundleNamePat matches well-formed bundle file names: a known kind
// prefix, the three 16-hex-digit key fingerprints, and the suffix. Names
// arriving over the fabric's bundle endpoints are untrusted path
// components; anything that does not match is rejected before it can
// touch the filesystem.
var bundleNamePat = regexp.MustCompile(`^([a-z]+)-[0-9a-f]{48}\.pfac$`)

// ValidBundleName reports whether name is a well-formed bundle file name
// with a known kind prefix, and returns that kind.
func ValidBundleName(name string) (Kind, bool) {
	m := bundleNamePat.FindStringSubmatch(name)
	if m == nil {
		return 0, false
	}
	k := KindFromString(m[1])
	return k, k != 0
}

// Remote is an optional second bundle tier behind the local directory:
// a peer (in practice the fabric coordinator) that is consulted on local
// misses and offered every locally written bundle. Both calls are
// best-effort — Fetch returning false and Push failing silently both
// just cost a recompute somewhere — and implementations own their own
// timeouts and retries. Fetched frames are checksum-validated before
// adoption, so a corrupt peer bundle degrades to a miss.
type Remote interface {
	Fetch(name string) ([]byte, bool)
	Push(name string, data []byte)
}

// Stats is a snapshot of the store's counters.
type Stats struct {
	// Hits counts lookups whose payload decoded into a usable artifact.
	Hits int64
	// Misses counts lookups that found no file, an unreadable file, or a
	// payload the caller rejected as corrupt (Rejects ⊆ Misses).
	Misses int64
	// Rejects counts payloads read successfully but rejected at decode
	// time (truncation, bit flips, version skew); the file is deleted.
	Rejects int64
	// Writes counts bundles persisted.
	Writes int64
	// Evictions counts bundles removed by the size bound.
	Evictions int64
	// Entries and Bytes describe current residency.
	Entries int
	Bytes   int64
	// Decode is the decode-time histogram over disk hits, in seconds.
	Decode obs.HistogramValue
	// RemoteFetches counts bundles adopted from the remote tier on local
	// misses; RemotePushes counts locally written bundles offered to it.
	RemoteFetches int64
	RemotePushes  int64
}

// entry is one resident bundle.
type entry struct {
	name string
	size int64
	elem *list.Element // position in the LRU list (front = oldest)
}

// Store is the on-disk artifact store: one file per bundle, atomic
// O_EXCL-temp + rename writes, and a size-bounded LRU. All methods are
// safe for concurrent use; cross-process sharing of one directory is
// safe because writes are atomic renames and readers fall back to the
// filesystem on index misses.
type Store struct {
	dir      string
	maxBytes int64 // <= 0 means unbounded

	mu      sync.Mutex
	entries map[string]*entry
	lru     *list.List // of *entry; front = least recently used
	bytes   int64
	seq     uint64

	hits, misses, rejects, writes, evictions int64
	remoteFetches, remotePushes              int64
	decode                                   obs.HistogramValue

	remote  Remote        // set once before concurrent use; nil = local only
	pushSem chan struct{} // bounds in-flight async remote pushes
	pushWG  sync.WaitGroup
}

// maxInflightPushes bounds the background remote-push goroutines per
// store. Pushes past the bound wait their turn rather than drop: a
// dropped push silently costs every fleet sibling a recompute.
const maxInflightPushes = 4

// SetRemote installs the remote bundle tier. Call once, before the
// store is used concurrently.
func (s *Store) SetRemote(r Remote) {
	s.remote = r
	s.pushSem = make(chan struct{}, maxInflightPushes)
}

// WaitRemote blocks until every background remote push started so far
// has completed. Bundle delivery is otherwise asynchronous; callers that
// need ordering against the remote tier (tests, graceful shutdown) wait
// here.
func (s *Store) WaitRemote() { s.pushWG.Wait() }

// Open opens (creating if needed) the store rooted at dir with the given
// byte budget. Pre-existing bundles are recovered into the LRU in
// modification-time order; leftover temp files and entries written by a
// different format version are deleted. maxBytes <= 0 disables the size
// bound.
func Open(dir string, maxBytes int64) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("diskcache: open %s: %w", dir, err)
	}
	s := &Store{
		dir:      dir,
		maxBytes: maxBytes,
		entries:  map[string]*entry{},
		lru:      list.New(),
	}
	des, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("diskcache: open %s: %w", dir, err)
	}
	type found struct {
		name  string
		size  int64
		mtime time.Time
	}
	var survivors []found
	for _, de := range des {
		name := de.Name()
		if de.IsDir() {
			continue
		}
		path := filepath.Join(dir, name)
		switch {
		case strings.HasSuffix(name, tmpSuffix):
			// A crashed writer's temp file; the rename never happened.
			os.Remove(path)
		case strings.HasSuffix(name, fileSuffix):
			info, err := de.Info()
			if err != nil {
				continue
			}
			if !recoverable(path, info.Size()) {
				// Wrong magic or a different format version: a stale
				// binary's entry that can only ever decode as a miss.
				os.Remove(path)
				continue
			}
			survivors = append(survivors, found{name: name, size: info.Size(), mtime: info.ModTime()})
		}
	}
	sort.Slice(survivors, func(i, j int) bool {
		if !survivors[i].mtime.Equal(survivors[j].mtime) {
			return survivors[i].mtime.Before(survivors[j].mtime)
		}
		return survivors[i].name < survivors[j].name
	})
	for _, f := range survivors {
		e := &entry{name: f.name, size: f.size}
		e.elem = s.lru.PushBack(e)
		s.entries[f.name] = e
		s.bytes += f.size
	}
	s.mu.Lock()
	s.evictLocked()
	s.mu.Unlock()
	return s, nil
}

// recoverable reports whether a file has this version's frame header.
// Only the header is checked at open — full checksum validation happens
// lazily at first Get, keeping recovery O(entries) cheap.
func recoverable(path string, size int64) bool {
	if size < int64(headerLen+checksumLen) {
		return false
	}
	f, err := os.Open(path)
	if err != nil {
		return false
	}
	defer f.Close()
	var hdr [headerLen]byte
	if _, err := f.Read(hdr[:]); err != nil {
		return false
	}
	return [4]byte(hdr[:4]) == magic && hdr[4] == FormatVersion
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Get returns the framed payload stored under k, or (nil, false) on a
// miss. A successful Get is not yet a hit: the caller decodes the
// payload and reports the outcome via Hit or Reject, so the hit counter
// only counts payloads that produced usable artifacts.
func (s *Store) Get(k Key) ([]byte, bool) {
	name := k.filename()
	path := filepath.Join(s.dir, name)

	s.mu.Lock()
	e, ok := s.entries[name]
	if ok {
		s.lru.MoveToBack(e.elem)
	}
	s.mu.Unlock()

	data, err := os.ReadFile(path)
	if err != nil {
		s.mu.Lock()
		if e, ok := s.entries[name]; ok {
			// Indexed but gone on disk (another process evicted it).
			s.dropLocked(e)
		}
		s.mu.Unlock()
		// Local miss: try the remote tier before giving up. A fetched
		// frame is checksum-validated here and adopted locally, so peers
		// serving bit rot cost nothing but the round-trip.
		if s.remote != nil {
			if rdata, rok := s.remote.Fetch(name); rok && CheckFrame(k.Kind, rdata) == nil {
				s.mu.Lock()
				s.remoteFetches++
				s.mu.Unlock()
				s.writeLocal(name, rdata)
				return rdata, true
			}
		}
		s.mu.Lock()
		s.misses++
		s.mu.Unlock()
		return nil, false
	}
	if !ok {
		// Filesystem fallback: another process wrote this bundle after we
		// opened the directory. Adopt it into the index.
		s.adoptEntry(name, int64(len(data)))
	}
	return data, true
}

// adoptEntry indexes a bundle that appeared on disk outside Put (a
// sibling process's write).
func (s *Store) adoptEntry(name string, size int64) {
	s.mu.Lock()
	if _, dup := s.entries[name]; !dup {
		e := &entry{name: name, size: size}
		e.elem = s.lru.PushBack(e)
		s.entries[name] = e
		s.bytes += e.size
		s.evictLocked()
	}
	s.mu.Unlock()
}

// Hit records a successful decode of a Get payload and its decode time.
func (s *Store) Hit(decode time.Duration) {
	s.mu.Lock()
	s.hits++
	s.decode.Observe(decode.Seconds())
	s.mu.Unlock()
}

// Reject records that a Get payload failed to decode: the entry is
// deleted so the recompute's Put rewrites it, and the lookup is
// accounted as a miss.
func (s *Store) Reject(k Key) {
	name := k.filename()
	s.mu.Lock()
	s.rejects++
	s.misses++
	if e, ok := s.entries[name]; ok {
		s.dropLocked(e)
	}
	s.mu.Unlock()
	os.Remove(filepath.Join(s.dir, name))
}

// Put persists a framed payload under k: written to an O_EXCL temp file
// (unique per process and call, so concurrent writers never share a
// partial file) and renamed into place atomically. Write failures are
// swallowed — the store is a cache, losing a write only costs a future
// recompute. Freshly computed bundles are also offered to the remote
// tier, so fabric siblings (and a restarted fleet) find them without
// recomputing. The offer is asynchronous — a push is best-effort and
// pure overhead on the analysis critical path — and bounded by
// maxInflightPushes; WaitRemote drains it.
func (s *Store) Put(k Key, data []byte) {
	name := k.filename()
	if !s.writeLocal(name, data) {
		return
	}
	if s.remote != nil {
		s.mu.Lock()
		s.remotePushes++
		s.mu.Unlock()
		s.pushWG.Add(1)
		s.pushSem <- struct{}{}
		go func() {
			defer func() { <-s.pushSem; s.pushWG.Done() }()
			s.remote.Push(name, data)
		}()
	}
}

// writeLocal atomically writes one bundle file and indexes it. Returns
// false if the write failed (and was cleaned up).
func (s *Store) writeLocal(name string, data []byte) bool {
	s.mu.Lock()
	s.seq++
	seq := s.seq
	s.mu.Unlock()

	tmp := filepath.Join(s.dir, fmt.Sprintf("%s.%d.%d%s", name, os.Getpid(), seq, tmpSuffix))
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return false
	}
	_, werr := f.Write(data)
	cerr := f.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp)
		return false
	}
	if err := os.Rename(tmp, filepath.Join(s.dir, name)); err != nil {
		os.Remove(tmp)
		return false
	}

	s.mu.Lock()
	s.writes++
	if e, ok := s.entries[name]; ok {
		// Replaced an existing bundle (same key ⇒ equivalent content).
		s.bytes += int64(len(data)) - e.size
		e.size = int64(len(data))
		s.lru.MoveToBack(e.elem)
	} else {
		e := &entry{name: name, size: int64(len(data))}
		e.elem = s.lru.PushBack(e)
		s.entries[name] = e
		s.bytes += e.size
	}
	s.evictLocked()
	s.mu.Unlock()
	return true
}

// ReadBundle returns the raw frame stored under a bundle file name, for
// serving to fabric peers. Unlike Get it never consults the remote tier
// and does not count a miss — it describes what this store has, not what
// an analysis needed. Malformed names are rejected without touching the
// filesystem.
func (s *Store) ReadBundle(name string) ([]byte, bool) {
	if _, ok := ValidBundleName(name); !ok {
		return nil, false
	}
	s.mu.Lock()
	if e, ok := s.entries[name]; ok {
		s.lru.MoveToBack(e.elem)
	}
	s.mu.Unlock()
	data, err := os.ReadFile(filepath.Join(s.dir, name))
	if err != nil {
		return nil, false
	}
	s.adoptEntry(name, int64(len(data)))
	return data, true
}

// AdoptBundle validates and stores a frame pushed by a peer under a
// bundle file name. The name must be well-formed, and the frame must
// carry the name's kind and an intact checksum; anything else returns
// ErrCorrupt and leaves the store untouched, so a misbehaving worker
// cannot poison the shared tier with unreadable bytes.
func (s *Store) AdoptBundle(name string, data []byte) error {
	kind, ok := ValidBundleName(name)
	if !ok {
		return ErrCorrupt
	}
	if err := CheckFrame(kind, data); err != nil {
		return err
	}
	if !s.writeLocal(name, data) {
		return fmt.Errorf("diskcache: adopt %s: write failed", name)
	}
	return nil
}

// dropLocked removes e from the index without touching the filesystem.
func (s *Store) dropLocked(e *entry) {
	s.lru.Remove(e.elem)
	delete(s.entries, e.name)
	s.bytes -= e.size
}

// evictLocked deletes least-recently-used bundles until the byte budget
// is met. The newest entry is evictable too: a single bundle larger than
// the whole budget is not kept.
func (s *Store) evictLocked() {
	if s.maxBytes <= 0 {
		return
	}
	for s.bytes > s.maxBytes && s.lru.Len() > 0 {
		e := s.lru.Front().Value.(*entry)
		s.dropLocked(e)
		s.evictions++
		os.Remove(filepath.Join(s.dir, e.name))
	}
}

// Stats returns a snapshot of the store's counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Hits:          s.hits,
		Misses:        s.misses,
		Rejects:       s.rejects,
		Writes:        s.writes,
		Evictions:     s.evictions,
		Entries:       len(s.entries),
		Bytes:         s.bytes,
		Decode:        s.decode,
		RemoteFetches: s.remoteFetches,
		RemotePushes:  s.remotePushes,
	}
}
