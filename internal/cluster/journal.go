package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"

	"neummu/internal/serve"
)

// Sweep checkpointing. The coordinator journals each sweep's identity and
// per-cell completion to an append-only file, so a coordinator restarted
// mid-sweep (or a client retrying the same request) resumes from the last
// durable cell instead of re-dispatching the whole grid — and a sweep
// whose journal is complete can be answered with zero healthy workers.
//
// One file per sweep request, named by the request's content hash:
//
//	sweep-<hash16>.journal
//
// Line format: every record is one line, `<crc32c-hex> <json>\n`, the
// checksum over the JSON bytes. The first record is the header (the hash,
// the grid size, and the full request, so a 64-bit collision or a schema
// drift reads as "not my journal" rather than as wrong cells); each
// following record is one completed cell in serve.CellLine shape with I
// as the global grid index. The loader skips any line that fails its
// checksum or does not parse — a torn tail write after SIGKILL costs that
// one cell, never the file — and duplicate cell records (two dispatches
// racing an append) are harmless: last one wins, and both carry the same
// deterministic result.
//
// Durability policy matches the disk store: plain appends, no fsync. The
// journal survives process death (the kernel owns the page cache); only
// power loss can lose the newest lines, and every lost line is just a
// cell to re-dispatch.

// journalMagic tags the header record; bumping the version makes old
// journals unreadable (ignored and rewritten) instead of misparsed.
const journalMagic = "neujournal1"

var journalCRC = crc32.MakeTable(crc32.Castagnoli)

// journalHeader is the first record of a journal file.
type journalHeader struct {
	Magic   string             `json:"magic"`
	Sweep   string             `json:"sweep"`
	Cells   int                `json:"cells"`
	Request serve.SweepRequest `json:"request"`
}

// SweepHash64 content-addresses a sweep request: FNV-1a over its
// canonical JSON. Stable across processes and restarts, so a retried
// request finds the journal its predecessor wrote.
func SweepHash64(req serve.SweepRequest) uint64 {
	b, err := json.Marshal(req)
	if err != nil {
		panic("cluster: encoding sweep request: " + err.Error())
	}
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// journal is one sweep's open checkpoint file. Appends are serialized by
// the mutex; they happen on dispatch goroutines as worker lines resolve,
// never on the client-stream path.
type journal struct {
	mu sync.Mutex
	f  *os.File
}

// encodeJournalLine renders one checksummed record line.
func encodeJournalLine(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic("cluster: encoding journal record: " + err.Error())
	}
	return []byte(fmt.Sprintf("%08x %s\n", crc32.Checksum(b, journalCRC), b))
}

// decodeJournalLine verifies one record line and returns its JSON bytes.
func decodeJournalLine(line []byte) ([]byte, bool) {
	if len(line) < 10 || line[8] != ' ' {
		return nil, false
	}
	sum, err := strconv.ParseUint(string(line[:8]), 16, 32)
	if err != nil {
		return nil, false
	}
	payload := line[9:]
	if crc32.Checksum(payload, journalCRC) != uint32(sum) {
		return nil, false
	}
	return payload, true
}

// journalPath names the journal file for a request hash.
func journalPath(dir string, hash uint64) string {
	return filepath.Join(dir, fmt.Sprintf("sweep-%016x.journal", hash))
}

// openJournal opens (resuming) or creates the journal for one sweep. It
// returns the open journal plus the cells already completed by a previous
// run, keyed by grid index. An existing file whose header does not match
// this exact request and grid size — a hash collision, a schema change,
// a corrupt header line — is discarded and rewritten fresh. keep bounds
// the directory's journal-file count (GC of old sweeps' journals).
func openJournal(dir string, keep int, req serve.SweepRequest, cells int) (*journal, map[int]serve.CellLine, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	hash := SweepHash64(req)
	path := journalPath(dir, hash)
	wantHeader := journalHeader{
		Magic: journalMagic, Sweep: fmt.Sprintf("%016x", hash),
		Cells: cells, Request: req,
	}
	wantHeaderJSON, err := json.Marshal(wantHeader)
	if err != nil {
		return nil, nil, err
	}

	done := make(map[int]serve.CellLine)
	resume := false
	if data, err := os.ReadFile(path); err == nil {
		lines := bytes.Split(data, []byte{'\n'})
		if len(lines) > 0 {
			if payload, ok := decodeJournalLine(lines[0]); ok && bytes.Equal(payload, wantHeaderJSON) {
				resume = true
				for _, line := range lines[1:] {
					payload, ok := decodeJournalLine(line)
					if !ok {
						continue // torn or corrupt line: that cell re-dispatches
					}
					var cl serve.CellLine
					if json.Unmarshal(payload, &cl) != nil || cl.I < 0 || cl.I >= cells || cl.Err != "" {
						continue
					}
					done[cl.I] = cl
				}
			}
		}
	}

	flags := os.O_CREATE | os.O_WRONLY
	if resume {
		flags |= os.O_APPEND
	} else {
		flags |= os.O_TRUNC
	}
	f, err := os.OpenFile(path, flags, 0o644)
	if err != nil {
		return nil, nil, err
	}
	j := &journal{f: f}
	if !resume {
		if _, err := f.Write(encodeJournalLine(wantHeader)); err != nil {
			f.Close()
			os.Remove(path)
			return nil, nil, err
		}
	}
	gcJournals(dir, keep, path)
	return j, done, nil
}

// appendCell checkpoints one completed cell. Failures are swallowed: the
// journal is an accelerator for restarts, never allowed to fail a sweep
// that the fleet is answering correctly.
func (j *journal) appendCell(cl serve.CellLine) {
	line := encodeJournalLine(cl)
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return
	}
	j.f.Write(line)
}

// close closes the underlying file; later appends become no-ops. A nil
// journal (checkpointing off) closes as a no-op.
func (j *journal) close() {
	if j == nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f != nil {
		j.f.Close()
		j.f = nil
	}
}

// gcJournals bounds the journal directory to keep files, deleting the
// oldest-modified first. The file passed as current is never deleted —
// the sweep writing it is live no matter how its mtime sorts.
func gcJournals(dir string, keep int, current string) {
	paths, err := filepath.Glob(filepath.Join(dir, "sweep-*.journal"))
	if err != nil || len(paths) <= keep {
		return
	}
	type aged struct {
		path string
		mod  int64
	}
	var all []aged
	for _, p := range paths {
		if p == current {
			continue
		}
		info, err := os.Stat(p)
		if err != nil {
			continue
		}
		all = append(all, aged{p, info.ModTime().UnixNano()})
	}
	sort.Slice(all, func(a, b int) bool { return all[a].mod < all[b].mod })
	excess := len(paths) - keep
	for i := 0; i < excess && i < len(all); i++ {
		os.Remove(all[i].path)
	}
}
