package server

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"matscale/internal/sweep"
)

// Checkpoint persistence. A suspended job is the only server state
// worth surviving a restart: everything else is either in flight
// (running jobs drain on Shutdown) or derivable (terminal results
// re-simulate byte-identically from their specs). Each suspended job
// owns one file, <CheckpointDir>/<id>.ckpt, holding its encoded
// sweep.Checkpoint; the integrity hash of the container turns a torn
// or tampered file into a decode error, never a silently wrong resume.

// ckptExt is the checkpoint file suffix; files without it are ignored
// by the restore scan.
const ckptExt = ".ckpt"

// corruptExt is appended to a checkpoint file that fails to decode or
// validate at startup, which takes it out of every later restore scan
// but keeps it for the operator to inspect.
const corruptExt = ".corrupt"

// ckptPath returns the checkpoint file for a job ID.
func (s *Server) ckptPath(id string) string {
	return filepath.Join(s.cfg.CheckpointDir, id+ckptExt)
}

// persistCheckpoint writes a suspended job's checkpoint durably (see
// writeFileSync), so readers and a restarted server only ever see a
// complete file, even after a power cut. A no-op without a
// CheckpointDir.
func (s *Server) persistCheckpoint(id string, ck *sweep.Checkpoint) error {
	if s.cfg.CheckpointDir == "" {
		return nil
	}
	data, err := ck.Encode()
	if err == nil {
		err = writeFileSync(s.ckptPath(id), data)
	}
	if err != nil {
		return fmt.Errorf("server: persist checkpoint for %s: %w", id, err)
	}
	return nil
}

// writeFileSync writes data to a temp file, fsyncs and closes it, then
// renames it to path and fsyncs the directory so the rename itself is
// on stable storage. A failure removes the temp file.
func writeFileSync(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		_ = os.Remove(tmp)
		return err
	}
	dir, err := os.Open(filepath.Dir(path))
	if err != nil {
		return err
	}
	err = dir.Sync()
	if cerr := dir.Close(); err == nil {
		err = cerr
	}
	return err
}

// removeCheckpoint deletes a job's persisted checkpoint once it is no
// longer resumable (terminal state). Best-effort: a leftover file only
// costs a stale suspended job on the next restart, which the operator
// can cancel.
func (s *Server) removeCheckpoint(id string) {
	if s.cfg.CheckpointDir == "" {
		return
	}
	_ = os.Remove(s.ckptPath(id))
}

// restoreCheckpoints scans CheckpointDir (creating it if absent) and
// rebuilds each persisted checkpoint as a suspended job under its
// original ID, advancing the ID counter past the restored ones so new
// submissions never collide. Called by New before the workers start. A
// checkpoint that fails to decode or validate — a torn write after a
// power loss, say — is quarantined: renamed to <id>.ckpt.corrupt and
// counted in Stats.CheckpointsQuarantined, and startup goes on without
// that job. An I/O error reading or renaming a file still aborts
// construction with an error naming the file.
func (s *Server) restoreCheckpoints() error {
	if s.cfg.CheckpointDir == "" {
		return nil
	}
	if err := os.MkdirAll(s.cfg.CheckpointDir, 0o755); err != nil {
		return fmt.Errorf("server: checkpoint dir: %w", err)
	}
	entries, err := os.ReadDir(s.cfg.CheckpointDir) // sorted by name
	if err != nil {
		return fmt.Errorf("server: checkpoint dir: %w", err)
	}
	for _, ent := range entries {
		name := ent.Name()
		if ent.IsDir() || !strings.HasSuffix(name, ckptExt) {
			continue
		}
		path := filepath.Join(s.cfg.CheckpointDir, name)
		data, err := os.ReadFile(path)
		if err != nil {
			return fmt.Errorf("server: restore %s: %w", name, err)
		}
		ck, err := sweep.DecodeCheckpoint(data)
		var cells []sweep.Cell
		if err == nil {
			cells, err = ck.Spec.Cells()
		}
		if err != nil {
			if err := os.Rename(path, path+corruptExt); err != nil {
				return fmt.Errorf("server: quarantine %s: %w", name, err)
			}
			s.quarantined++
			continue
		}
		id := strings.TrimSuffix(name, ckptExt)
		sp := ck.Spec
		j := &Job{
			id:         id,
			spec:       &sp,
			backend:    ck.Backend,
			total:      len(cells),
			state:      StateSuspended,
			done:       len(ck.Done),
			checkpoint: ck,
			finished:   make(chan struct{}),
			subs:       map[int]chan Event{},
		}
		s.jobs[id] = j
		s.suspended++
		if rest, ok := strings.CutPrefix(id, "job-"); ok {
			if n, err := strconv.Atoi(rest); err == nil && n > s.nextID {
				s.nextID = n
			}
		}
	}
	return nil
}
