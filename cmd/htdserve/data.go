package main

import (
	"fmt"
	"io"
	"net/http"

	htd "repro"
)

// The /data endpoints manage named, server-resident, versioned
// datasets — upload once, query many times by name, mutate with tuple
// deltas:
//
//	PUT    /data/{name}         upload (create or replace) from rel blocks
//	GET    /data/{name}         metadata: version, relations, tuple counts
//	DELETE /data/{name}         drop (in-flight queries finish unaffected)
//	POST   /data/{name}/mutate  NDJSON delta batch -> one version bump
//	GET    /data                list the caller's datasets
//
// All endpoints are tenant-walled: datasets are namespaced by the
// X-Tenant header, and uploads/mutations pass the same per-tenant
// admission wall queries do — a tenant hammering writes is rejected
// with 429 + Retry-After before it can touch shared state.

// admitted answers one dataset write (upload or mutation) that passes
// the per-tenant wall: write's result on success, its error otherwise.
// A rejection by the wall answers with that error, Retry-After
// included, before write runs.
func (s *server) admitted(write func(r *http.Request, tenant string) (any, error)) func(http.ResponseWriter, *http.Request, string) {
	return func(w http.ResponseWriter, r *http.Request, tenant string) {
		lease, err := s.svc.Tenants().Admit(r.Context(), tenant)
		if err != nil {
			writeError(w, err)
			return
		}
		r.Body = http.MaxBytesReader(w, r.Body, s.maxBody)
		v, err := write(r, tenant)
		defer lease.Done(err != nil)
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, nil, v)
	}
}

// handleDataPut creates or replaces a named dataset from rel blocks
// (the same text format the inline /query "database" field uses). A
// replacement continues the version counter and evicts every prior
// pinnable version.
func (s *server) handleDataPut(r *http.Request, tenant string) (any, error) {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		return nil, fmt.Errorf("read body: %w", err)
	}
	db, err := htd.ParseRelations(string(body))
	if err != nil {
		return nil, fmt.Errorf("parse database: %v", err)
	}
	name := r.PathValue("name")
	version, err := s.svc.Datasets().Put(tenant, name, db)
	if err != nil {
		return nil, err
	}
	return map[string]any{
		"name":      name,
		"version":   version,
		"relations": len(db),
		"tuples":    s.liveTuples(tenant, name, version, db),
	}, nil
}

// liveTuples is the tuple count of the version a PUT of db created:
// the upload's distinct tuples, as GET reports them. It reads the
// dataset's own count unless a concurrent write has already moved the
// dataset past that version.
func (s *server) liveTuples(tenant, name string, version uint64, db htd.Database) int {
	if d, ok := s.svc.Datasets().Get(tenant, name); ok {
		if info := d.Info(); info.Version == version {
			return info.Tuples
		}
	}
	tuples := 0
	for _, rel := range db {
		tuples += rel.Dedup().Size()
	}
	return tuples
}

func (s *server) handleDataGet(w http.ResponseWriter, r *http.Request, tenant string) {
	d, ok := s.svc.Datasets().Get(tenant, r.PathValue("name"))
	if !ok {
		writeError(w, htd.ErrDatasetNotFound)
		return
	}
	writeJSON(w, nil, d.Info())
}

func (s *server) handleDataDelete(w http.ResponseWriter, r *http.Request, tenant string) {
	if !s.svc.Datasets().Drop(tenant, r.PathValue("name")) {
		writeError(w, htd.ErrDatasetNotFound)
		return
	}
	writeJSON(w, nil, map[string]any{"dropped": r.PathValue("name")})
}

func (s *server) handleDataList(w http.ResponseWriter, r *http.Request, tenant string) {
	writeJSON(w, nil, map[string]any{
		"datasets": s.svc.Datasets().List(tenant),
	})
}

// handleDataMutate applies one NDJSON delta batch — lines of
// {"op":"insert"|"delete","rel":"R","rows":[[..],..]} — as a single
// atomic version bump. The whole batch is validated before any of it
// applies: a bad line leaves the dataset untouched. In-flight queries
// keep reading the snapshot they resolved; only queries arriving after
// the commit see the new version.
func (s *server) handleDataMutate(r *http.Request, tenant string) (any, error) {
	d, ok := s.svc.Datasets().Get(tenant, r.PathValue("name"))
	if !ok {
		return nil, htd.ErrDatasetNotFound
	}
	batch, err := htd.DecodeDatasetBatch(r.Body)
	if err != nil {
		return nil, err
	}
	return d.Mutate(batch)
}
