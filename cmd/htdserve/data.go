package main

import (
	"errors"
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

// datasetStatus maps a dataset-layer error to its HTTP status.
func datasetStatus(err error) int {
	switch {
	case errors.Is(err, htd.ErrDatasetNotFound):
		return http.StatusNotFound
	case errors.Is(err, htd.ErrDatasetVersionGone):
		return http.StatusGone
	case errors.Is(err, htd.ErrDatasetLimit):
		return http.StatusRequestEntityTooLarge
	case errors.Is(err, htd.ErrTenantLimited):
		return http.StatusTooManyRequests
	}
	return http.StatusBadRequest
}

// admitWrite passes one dataset write (upload or mutation) through the
// per-tenant wall. On success the returned release must be called with
// whether the write failed; on rejection the 429/error has already
// been written.
func (s *server) admitWrite(w http.ResponseWriter, r *http.Request, tenant string) (release func(failed bool), ok bool) {
	lease, err := s.svc.Tenants().Admit(r.Context(), tenant)
	if err != nil {
		if errors.Is(err, htd.ErrTenantLimited) {
			setRetryAfter(w, err)
			writeJSON(w, http.StatusTooManyRequests,
				map[string]any{"error": err.Error(), "retry_after_ms": retryAfterMS(err)})
			return nil, false
		}
		httpError(w, http.StatusServiceUnavailable, err.Error())
		return nil, false
	}
	return lease.Done, true
}

// handleDataPut creates or replaces a named dataset from rel blocks
// (the same text format the inline /query "database" field uses). A
// replacement continues the version counter and evicts every prior
// pinnable version.
func (s *server) handleDataPut(w http.ResponseWriter, r *http.Request, tenant string) {
	release, ok := s.admitWrite(w, r, tenant)
	if !ok {
		return
	}
	failed := true
	defer func() { release(failed) }()

	r.Body = http.MaxBytesReader(w, r.Body, s.maxBody)
	body, err := io.ReadAll(r.Body)
	if err != nil {
		httpError(w, bodyErrStatus(err), "read body: "+err.Error())
		return
	}
	db, err := htd.ParseRelations(string(body))
	if err != nil {
		httpError(w, http.StatusBadRequest, "parse database: "+err.Error())
		return
	}
	name := r.PathValue("name")
	version, err := s.svc.Datasets().Put(tenant, name, db)
	if err != nil {
		httpError(w, datasetStatus(err), err.Error())
		return
	}
	failed = false
	writeJSON(w, http.StatusOK, map[string]any{
		"name":      name,
		"version":   version,
		"relations": len(db),
		"tuples":    s.liveTuples(tenant, name, version, db),
	})
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
		httpError(w, http.StatusNotFound, htd.ErrDatasetNotFound.Error())
		return
	}
	writeJSON(w, http.StatusOK, d.Info())
}

func (s *server) handleDataDelete(w http.ResponseWriter, r *http.Request, tenant string) {
	if !s.svc.Datasets().Drop(tenant, r.PathValue("name")) {
		httpError(w, http.StatusNotFound, htd.ErrDatasetNotFound.Error())
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"dropped": r.PathValue("name")})
}

func (s *server) handleDataList(w http.ResponseWriter, r *http.Request, tenant string) {
	writeJSON(w, http.StatusOK, map[string]any{
		"datasets": s.svc.Datasets().List(tenant),
	})
}

// handleDataMutate applies one NDJSON delta batch — lines of
// {"op":"insert"|"delete","rel":"R","rows":[[..],..]} — as a single
// atomic version bump. The whole batch is validated before any of it
// applies: a bad line leaves the dataset untouched. In-flight queries
// keep reading the snapshot they resolved; only queries arriving after
// the commit see the new version.
func (s *server) handleDataMutate(w http.ResponseWriter, r *http.Request, tenant string) {
	release, ok := s.admitWrite(w, r, tenant)
	if !ok {
		return
	}
	failed := true
	defer func() { release(failed) }()

	d, ok := s.svc.Datasets().Get(tenant, r.PathValue("name"))
	if !ok {
		httpError(w, http.StatusNotFound, htd.ErrDatasetNotFound.Error())
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, s.maxBody)
	batch, err := htd.DecodeDatasetBatch(r.Body)
	if err != nil {
		httpError(w, bodyErrStatus(err), err.Error())
		return
	}
	res, err := d.Mutate(batch)
	if err != nil {
		httpError(w, datasetStatus(err), err.Error())
		return
	}
	failed = false
	writeJSON(w, http.StatusOK, res)
}
