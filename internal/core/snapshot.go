package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"

	"repro/internal/loid"
	"repro/internal/persist"
)

// snapshotName is the file under Options.DataDir holding the system
// tables; the OPRs themselves live next to it under j<N>/.
const snapshotName = "system.state"

// snapshotVersion guards the JSON layout.
const snapshotVersion = 1

// snapshot is everything a restarted Boot needs beyond the OPR files:
// the metaclass (Class Identifier counter, responsibility pairs), the
// core Abstract classes' instance tables, and each Magistrate's object
// table (records pointing at their newest persistent representation).
// Running objects are NOT part of it — their state is already in the
// Jurisdiction stores as deactivation OPRs or crash checkpoints, and
// the restored Magistrate records reference exactly those.
type snapshot struct {
	Version     int               `json:"version"`
	Metaclass   []byte            `json:"metaclass"`
	Classes     map[string][]byte `json:"classes"`     // core class LOID -> state
	Magistrates [][]byte          `json:"magistrates"` // by jurisdiction index
}

// snapshotPath returns "" when the system has no durable home.
func (s *System) snapshotPath() string {
	if s.Options.DataDir == "" {
		return ""
	}
	return filepath.Join(s.Options.DataDir, snapshotName)
}

// loadSnapshot reads DataDir/system.state; a missing file (first boot)
// is not an error, a corrupt one is quarantined alongside and ignored —
// the system boots fresh rather than not at all, mirroring the store's
// treatment of torn OPRs.
func (s *System) loadSnapshot() (*snapshot, error) {
	path := s.snapshotPath()
	if path == "" {
		return nil, nil
	}
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("core: read snapshot: %w", err)
	}
	var snap snapshot
	if err := json.Unmarshal(data, &snap); err != nil || snap.Version != snapshotVersion {
		_ = os.Rename(path, path+".corrupt")
		s.Reg.Counter("persist/quarantined").Inc()
		return nil, nil
	}
	return &snap, nil
}

// SaveSnapshot writes the system tables to DataDir/system.state
// (atomically: temp file + rename, with the file and the rename fsynced
// before it returns), so a subsequent Boot with the same DataDir
// restores every registered class and object. Call
// CheckpointNow first if active objects' latest state should be
// captured too. Errors when the system has no DataDir.
func (s *System) SaveSnapshot() error {
	path := s.snapshotPath()
	if path == "" {
		return fmt.Errorf("core: SaveSnapshot needs Options.DataDir")
	}
	snap := &snapshot{
		Version: snapshotVersion,
		Classes: make(map[string][]byte),
	}
	var err error
	if snap.Metaclass, err = s.meta.SaveState(); err != nil {
		return fmt.Errorf("core: save LegionClass: %w", err)
	}
	for l := range s.CoreClassAddrs {
		if l.SameObject(loid.LegionClass) {
			continue // saved above, with its metaclass extensions
		}
		o, ok := s.FindObject(l)
		if !ok {
			continue
		}
		st, err := o.Impl().SaveState()
		if err != nil {
			return fmt.Errorf("core: save class %v: %w", l, err)
		}
		snap.Classes[l.String()] = st
	}
	for j, juris := range s.Jurisdictions {
		st, err := juris.mag.SaveState()
		if err != nil {
			return fmt.Errorf("core: save magistrate %d: %w", j, err)
		}
		snap.Magistrates = append(snap.Magistrates, st)
	}
	data, err := json.MarshalIndent(snap, "", " ")
	if err != nil {
		return err
	}
	return persist.WriteFileAtomic(persist.OS{}, path, data)
}

// CheckpointNow forces one synchronous checkpoint round on every host:
// each dirty resident's state is saved and filed in its Jurisdiction's
// store. Returns how many objects were checkpointed. Only meaningful
// when Options.CheckpointEvery started the checkpoint loops.
func (s *System) CheckpointNow() (int, error) {
	total := 0
	var firstErr error
	for _, j := range s.Jurisdictions {
		for _, h := range j.hostImpls {
			n, err := h.CheckpointNow()
			total += n
			if err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	return total, firstErr
}
