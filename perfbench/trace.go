package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"karousos.dev/karousos/internal/core"
	"karousos.dev/karousos/internal/harness"
	"karousos.dev/karousos/internal/iofault"
	"karousos.dev/karousos/internal/kvstore"
	"karousos.dev/karousos/internal/mv"
)

// clock0 is the origin of every timestamp the benchmark records.
var clock0 = time.Now()

func now() time.Duration { return time.Since(clock0) }

// span is one timed call at a layer boundary. Spans of one request share
// its RID as Key; spans of one epoch share "ep<seq>".
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent,omitempty"`
	Name   string        `json:"name"`
	Key    string        `json:"key,omitempty"`
	Start  time.Duration `json:"startNs"`
	End    time.Duration `json:"endNs"`
	Bytes  int           `json:"bytes,omitempty"`
	Status int           `json:"status,omitempty"`
}

func (s span) interval() interval { return interval{s.Start, s.End} }
func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs install no wrappers at all.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

func (t *tracer) record(s span) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ID = len(t.spans) + 1
	t.spans = append(t.spans, s)
	return s.ID
}

// setParent links span id to parent after the fact, for spans whose
// parent is known only once both have ended.
func (t *tracer) setParent(id, parent int) {
	t.mu.Lock()
	t.spans[id-1].Parent = parent
	t.mu.Unlock()
}

// named returns a copy of every span called name whose start lies in
// [from, to).
func (t *tracer) named(name string, from, to time.Duration) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Name == name && s.Start >= from && s.Start < to {
			out = append(out, s)
		}
	}
	return out
}

func (t *tracer) writeJSON(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	blob, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}

// tracedSpec wraps every handler of each app instance spec.New builds in a
// span called name, keyed by the first RID of the activation.
func tracedSpec(spec harness.AppSpec, tr *tracer, name string) harness.AppSpec {
	if tr == nil {
		return spec
	}
	build := spec.New
	spec.New = func() (*core.App, *kvstore.Store) {
		app, store := build()
		for id, fn := range app.Funcs {
			app.Funcs[id] = func(ctx *core.Context, payload *mv.MV) {
				start := now()
				defer func() {
					tr.record(span{Name: name, Key: string(ctx.RIDs()[0]), Start: start, End: now()})
				}()
				fn(ctx, payload)
			}
		}
		return app, store
	}
	return spec
}

// timedFS records one span per filesystem call the collector or auditor
// makes, named "<who>.fs.<call>" and keyed by the file's base name.
type timedFS struct {
	iofault.FS
	tr  *tracer
	who string
}

func tracedFS(tr *tracer, who string) iofault.FS {
	if tr == nil {
		return nil
	}
	return timedFS{FS: iofault.OS, tr: tr, who: who}
}

func (f timedFS) note(call, path string, start time.Duration, n int) {
	f.tr.record(span{Name: f.who + ".fs." + call, Key: filepath.Base(path), Start: start, End: now(), Bytes: n})
}

func (f timedFS) OpenFile(name string, flag int, perm os.FileMode) (iofault.File, error) {
	start := now()
	file, err := f.FS.OpenFile(name, flag, perm)
	f.note("open", name, start, 0)
	if err != nil {
		return nil, err
	}
	return timedFile{File: file, fs: f, name: name}, nil
}

func (f timedFS) ReadFile(name string) ([]byte, error) {
	start := now()
	b, err := f.FS.ReadFile(name)
	f.note("read", name, start, len(b))
	return b, err
}

func (f timedFS) WriteFile(name string, data []byte, perm os.FileMode) error {
	start := now()
	err := f.FS.WriteFile(name, data, perm)
	f.note("write", name, start, len(data))
	return err
}

func (f timedFS) Rename(oldpath, newpath string) error {
	start := now()
	err := f.FS.Rename(oldpath, newpath)
	f.note("rename", newpath, start, 0)
	return err
}

func (f timedFS) SyncDir(dir string) error {
	start := now()
	err := f.FS.SyncDir(dir)
	f.note("syncdir", dir, start, 0)
	return err
}

type timedFile struct {
	iofault.File
	fs   timedFS
	name string
}

func (t timedFile) Write(b []byte) (int, error) {
	start := now()
	n, err := t.File.Write(b)
	t.fs.note("write", t.name, start, n)
	return n, err
}

func (t timedFile) Sync() error {
	start := now()
	err := t.File.Sync()
	t.fs.note("sync", t.name, start, 0)
	return err
}

// tracedHandler wraps the collector's HTTP handler in a
// "collectorhttp.handler" span keyed by the RID the response names.
func tracedHandler(h http.Handler, tr *tracer) http.Handler {
	if tr == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := now()
		rec := &recorder{ResponseWriter: w, status: http.StatusOK}
		h.ServeHTTP(rec, r)
		var body struct {
			RID string `json:"rid"`
		}
		_ = json.Unmarshal(rec.body.Bytes(), &body) // refusals carry plain text and no RID
		tr.record(span{Name: "collectorhttp.handler", Key: body.RID, Start: start, End: now(), Status: rec.status})
	})
}

type recorder struct {
	http.ResponseWriter
	status int
	body   bytes.Buffer
}

func (r *recorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *recorder) Write(b []byte) (int, error) {
	r.body.Write(b)
	return r.ResponseWriter.Write(b)
}
