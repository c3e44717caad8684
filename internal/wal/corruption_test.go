package wal

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"mrskyline/internal/frame"
	"mrskyline/internal/spill"
	"mrskyline/internal/tuple"
)

// TestCorruptionSweep is the one every-offset sweep over the three file
// formats laid out on internal/frame: each bit flip and each truncation of
// a small file must surface as the format's typed error — never a clean
// read, never a panic — and where the error says how far the file was
// intact, that offset is not past the damage. What each format then does
// about it (truncate a torn tail, fall back a snapshot, re-run a map) has
// its own tests.
func TestCorruptionSweep(t *testing.T) {
	formats := []struct {
		name  string
		write func(t *testing.T, dir string) string
		read  func(path string) error
		// broken checks the typed error and returns the offset it vouches
		// for; cleanCut says a truncation to cut bytes is a valid shorter
		// file.
		broken   func(t *testing.T, err error) int64
		cleanCut func(cut int) bool
	}{
		{
			name: "SKYRUN1",
			write: func(t *testing.T, dir string) string {
				w := spill.NewWriter(&spill.Config{Dir: dir, Budget: 1 << 20}, "sweep", 9)
				for _, kv := range [][2]string{{"b", "2"}, {"", "v0"}, {"key-long-0001", ""}, {"a", "1"}} {
					if err := w.Add([]byte(kv[0]), []byte(kv[1])); err != nil {
						t.Fatal(err)
					}
				}
				runs, err := w.Finish()
				if err != nil || len(runs) != 1 {
					t.Fatalf("Finish: %d runs, %v", len(runs), err)
				}
				return runs[0].Path
			},
			read: func(path string) error {
				r, err := spill.OpenRun(spill.RunFile{Path: path, Tag: 9}, 0)
				if err != nil {
					return err
				}
				defer r.Close()
				for {
					if _, _, err := r.Next(); err == io.EOF {
						return nil
					} else if err != nil {
						return err
					}
				}
			},
			broken: func(t *testing.T, err error) int64 {
				var ce *spill.CorruptError
				var fe *frame.CorruptError
				if !errors.As(err, &ce) || ce.Tag != 9 || !errors.As(err, &fe) {
					t.Fatalf("error = %v, want *spill.CorruptError tagged 9 around *frame.CorruptError", err)
				}
				return fe.Off
			},
		},
		{
			name: "SKYWAL1",
			write: func(t *testing.T, dir string) string {
				l, err := openLog(dir, 1, 1<<20, nil)
				if err != nil {
					t.Fatal(err)
				}
				for gen := uint64(1); gen <= 5; gen++ {
					if err := l.append(gen, []byte{9, 9, 9, byte(gen)}); err != nil {
						t.Fatal(err)
					}
				}
				if err := l.close(); err != nil {
					t.Fatal(err)
				}
				return segPath(dir, 1)
			},
			read: func(path string) error {
				_, goodOff, err := scanSegment(path)
				var te *tornError
				if errors.As(err, &te) && te.Frame.Off != goodOff {
					return errors.New("tornError and goodOff disagree")
				}
				return err
			},
			broken: func(t *testing.T, err error) int64 {
				var te *tornError
				var fe *frame.CorruptError
				if !errors.As(err, &te) || !errors.As(err, &fe) {
					t.Fatalf("error = %v, want *tornError around *frame.CorruptError", err)
				}
				return fe.Off
			},
			// A cut exactly on a record boundary — magic, then 13-byte
			// records — is a clean shorter log.
			cleanCut: func(cut int) bool { return cut >= len(segMagic) && (cut-len(segMagic))%13 == 0 },
		},
		{
			name: "SKYSNAP",
			write: func(t *testing.T, dir string) string {
				path, err := writeSnapshot(dir, snapshotState{
					Gen: 3, Dim: 2, PPD: 2, Lo: tuple.Tuple{0, 0}, Hi: tuple.Tuple{1, 1},
					Meta: []byte("m"), Rows: tuple.List{{0.5, 0.5}},
				})
				if err != nil {
					t.Fatal(err)
				}
				return path
			},
			read: func(path string) error {
				_, err := readSnapshot(path)
				return err
			},
			// One sum over the whole file: errSnapCorrupt vouches for none
			// of it, which is all Recover's fallback needs.
			broken: func(t *testing.T, err error) int64 {
				if !errors.Is(err, errSnapCorrupt) {
					t.Fatalf("error = %v, want errSnapCorrupt", err)
				}
				return 0
			},
		},
	}
	for _, f := range formats {
		t.Run(f.name, func(t *testing.T) {
			path := f.write(t, t.TempDir())
			orig, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := f.read(path); err != nil {
				t.Fatalf("pristine file: %v", err)
			}
			damaged := filepath.Join(t.TempDir(), filepath.Base(path))
			for pos := range orig {
				b := append([]byte(nil), orig...)
				b[pos] ^= 1 << (pos % 8)
				if err := os.WriteFile(damaged, b, 0o644); err != nil {
					t.Fatal(err)
				}
				err := f.read(damaged)
				if err == nil {
					t.Fatalf("bit flip at offset %d went undetected", pos)
				}
				if off := f.broken(t, err); off > int64(pos) {
					t.Fatalf("bit flip at offset %d: reported intact up to %d", pos, off)
				}
			}
			for cut := 0; cut < len(orig); cut++ {
				if err := os.WriteFile(damaged, orig[:cut], 0o644); err != nil {
					t.Fatal(err)
				}
				err := f.read(damaged)
				if f.cleanCut != nil && f.cleanCut(cut) {
					if err != nil {
						t.Fatalf("truncation to %d bytes, a record boundary: %v", cut, err)
					}
					continue
				}
				if err == nil {
					t.Fatalf("truncation to %d bytes went undetected", cut)
				}
				if off := f.broken(t, err); off > int64(cut) {
					t.Fatalf("truncation to %d bytes: reported intact up to %d", cut, off)
				}
			}
		})
	}
}
