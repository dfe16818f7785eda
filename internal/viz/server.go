package viz

import (
	"errors"
	"fmt"
	"html/template"
	"net/http"
	"net/url"
	"strconv"
	"strings"
)

// Server is the web application's HTML half: the three Figure-3 pages
// rendered over a Backend. It implements http.Handler. The JSON
// surfaces that used to live here are served by the /api/v1 gateway
// (internal/api), which mounts this server for everything it does not
// claim.
type Server struct {
	backend *Backend
	mux     *http.ServeMux
	tmpl    *template.Template
	// Now supplies the "current" fleet time (seconds); injectable so
	// tests and the simulated clock agree. Defaults to the backend's
	// latest window end via the ?to= query parameter.
	Now func() int64
	// Window is the default lookback in seconds (default 300).
	Window int64
}

// NewServer builds the application over a backend.
func NewServer(backend *Backend, now func() int64) *Server {
	s := &Server{
		backend: backend,
		mux:     http.NewServeMux(),
		tmpl:    template.Must(template.New("viz").Funcs(funcMap()).Parse(pageTemplates)),
		Now:     now,
		Window:  300,
	}
	s.mux.HandleFunc("/", s.handleFleet)
	s.mux.HandleFunc("/machine/", s.handleMachine)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// window resolves the request's window (Window). A parameter that is
// not an integer, or an inverted window (from after to), is rejected
// with ErrBadRequest — as /api/v1 does — instead of silently serving
// the default window or running the full query pipeline on an empty
// range.
func (s *Server) window(r *http.Request) (int64, int64, error) {
	from, to, err := Window(r.URL.Query(), s.Now(), s.Window)
	if err != nil {
		return 0, 0, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	return from, to, nil
}

// Window is the one window rule of the HTML pages and /api/v1: [from,
// to] from q's from/to parameters, to defaulting to now and from to
// span before to, from clamped at 0. Every error it returns is the
// client's — a parameter that is not an integer, or an inverted
// window — and each surface renders it as its own 400.
func Window(q url.Values, now, span int64) (from, to int64, err error) {
	to = now
	if v := q.Get("to"); v != "" {
		if to, err = strconv.ParseInt(v, 10, 64); err != nil {
			return 0, 0, fmt.Errorf("bad to %q", v)
		}
	}
	from = to - span
	if v := q.Get("from"); v != "" {
		if from, err = strconv.ParseInt(v, 10, 64); err != nil {
			return 0, 0, fmt.Errorf("bad from %q", v)
		}
	}
	from = max(from, 0)
	if from > to {
		return 0, 0, fmt.Errorf("inverted window [%d, %d]", from, to)
	}
	return from, to, nil
}

// statusFor maps backend errors onto HTTP statuses: validation errors
// are the client's fault (404/400); everything else is a storage
// failure (500).
func statusFor(err error) int {
	switch {
	case errors.Is(err, ErrBadRequest):
		return http.StatusBadRequest
	case errors.Is(err, ErrNotFound):
		return http.StatusNotFound
	default:
		return http.StatusInternalServerError
	}
}

func (s *Server) handleFleet(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	from, to, err := s.window(r)
	if err != nil {
		http.Error(w, err.Error(), statusFor(err))
		return
	}
	fleet, err := s.backend.Fleet(r.Context(), from, to)
	if err != nil {
		http.Error(w, err.Error(), statusFor(err))
		return
	}
	top, err := s.backend.TopAnomalies(r.Context(), from, to, 5)
	if err != nil {
		http.Error(w, err.Error(), statusFor(err))
		return
	}
	s.render(w, "fleet", map[string]any{
		"Fleet":     fleet,
		"Top":       top,
		"StatusBar": StatusBar(fleet.Healthy, fleet.Warning, fleet.Critical, 480, 14),
		"From":      from,
		"To":        to,
	})
}

// machinePath parses /machine/<unit>[/sensor/<sensor>].
func machinePath(path string) (unit, sensor int, drill bool, err error) {
	parts := strings.Split(strings.Trim(path, "/"), "/")
	if len(parts) < 2 || parts[0] != "machine" {
		return 0, 0, false, fmt.Errorf("viz: bad path %q", path)
	}
	unit, err = strconv.Atoi(parts[1])
	if err != nil {
		return 0, 0, false, fmt.Errorf("viz: bad unit %q", parts[1])
	}
	if len(parts) == 2 {
		return unit, 0, false, nil
	}
	if len(parts) == 4 && parts[2] == "sensor" {
		sensor, err = strconv.Atoi(parts[3])
		if err != nil {
			return 0, 0, false, fmt.Errorf("viz: bad sensor %q", parts[3])
		}
		return unit, sensor, true, nil
	}
	return 0, 0, false, fmt.Errorf("viz: bad path %q", path)
}

func (s *Server) handleMachine(w http.ResponseWriter, r *http.Request) {
	unit, sensor, drill, err := machinePath(r.URL.Path)
	if err != nil {
		http.NotFound(w, r)
		return
	}
	from, to, err := s.window(r)
	if err != nil {
		http.Error(w, err.Error(), statusFor(err))
		return
	}
	if drill {
		det, err := s.backend.Sensor(r.Context(), unit, sensor, from, to)
		if err != nil {
			http.Error(w, err.Error(), statusFor(err))
			return
		}
		s.render(w, "sensor", map[string]any{
			"Detail": det,
			"Chart":  Sparkline(det.Samples, det.Anomalies, 640, 160),
			"From":   from,
			"To":     to,
		})
		return
	}
	mv, err := s.backend.Machine(r.Context(), unit, from, to)
	if err != nil {
		http.Error(w, err.Error(), statusFor(err))
		return
	}
	healthy := 0
	if mv.Status == StatusHealthy {
		healthy = 1
	}
	warning := 0
	if mv.Status == StatusWarning {
		warning = 1
	}
	critical := 0
	if mv.Status == StatusCritical {
		critical = 1
	}
	type row struct {
		SensorView
		Spark template.HTML
	}
	rows := make([]row, len(mv.Sensors))
	for i, sv := range mv.Sensors {
		rows[i] = row{SensorView: sv, Spark: Sparkline(sv.Samples, sv.Anomalies, 160, 28)}
	}
	s.render(w, "machine", map[string]any{
		"Machine":   mv,
		"Rows":      rows,
		"StatusBar": StatusBar(healthy, warning, critical, 480, 14),
		"From":      from,
		"To":        to,
	})
}

func funcMap() template.FuncMap {
	return template.FuncMap{
		"printf": fmt.Sprintf,
	}
}

// pageTemplates holds the three HTML surfaces. The markup is kept
// minimal and responsive (mobile access is a stated requirement).
const pageTemplates = `
{{define "head"}}<!DOCTYPE html>
<html><head><meta charset="utf-8">
<meta name="viewport" content="width=device-width, initial-scale=1">
<title>Power Asset Monitor</title>
<style>
body{font-family:system-ui,sans-serif;margin:1rem;color:#222}
table{border-collapse:collapse;width:100%}
td,th{padding:.25rem .5rem;text-align:left;border-bottom:1px solid #eee}
.healthy{color:#3cb371}.warning{color:#e8b93c}.critical{color:#d94a4a}
.spark{vertical-align:middle}
a{color:#4a90d9;text-decoration:none}
.bar{margin:.5rem 0}
</style></head><body>{{end}}

{{define "fleet"}}{{template "head" .}}
<h1>Fleet overview</h1>
<div class="bar">{{.StatusBar}}</div>
<p class="summary">{{.Fleet.Healthy}} healthy &middot; {{.Fleet.Warning}} warning &middot; {{.Fleet.Critical}} critical &middot; {{.Fleet.Anomalies}} anomalies in window {{.From}}&ndash;{{.To}}</p>
{{if .Top}}<h2>Most concerning anomalies</h2>
<table id="top-anomalies">
<tr><th>Severity (z)</th><th>Machine</th><th>Sensor</th><th>Time</th></tr>
{{range .Top}}<tr class="top-row critical">
<td>{{printf "%.1f" .Severity}}</td>
<td><a href="/machine/{{.Unit}}?from={{$.From}}&amp;to={{$.To}}">machine {{.Unit}}</a></td>
<td><a href="/machine/{{.Unit}}/sensor/{{.Sensor}}?from={{$.From}}&amp;to={{$.To}}">sensor {{.Sensor}}</a></td>
<td>{{.Timestamp}}</td>
</tr>{{end}}
</table>{{end}}
<table id="units">
<tr><th>Unit</th><th>Status</th><th>Anomalies</th><th>Flagged sensors</th></tr>
{{range .Fleet.Units}}<tr class="unit-row {{.Status}}">
<td><a href="/machine/{{.Unit}}?from={{$.From}}&amp;to={{$.To}}">machine {{.Unit}}</a></td>
<td class="{{.Status}}">{{.Status}}</td><td>{{.Anomalies}}</td><td>{{.FlaggedSensors}}</td>
</tr>{{end}}
</table>
</body></html>{{end}}

{{define "machine"}}{{template "head" .}}
<h1>Machine {{.Machine.Unit}}</h1>
<div class="bar">{{.StatusBar}}</div>
<p class="summary">status: <span class="{{.Machine.Status}}">{{.Machine.Status}}</span> &middot; {{.Machine.Anomalies}} anomalies in window {{.From}}&ndash;{{.To}} &middot; <a href="/">back to fleet</a></p>
<table id="sensors">
<tr><th>Sensor</th><th>Signal</th><th>Latest</th><th>Flags</th></tr>
{{range .Rows}}<tr class="sensor-row">
<td><a href="/machine/{{$.Machine.Unit}}/sensor/{{.Sensor}}?from={{$.From}}&amp;to={{$.To}}">sensor {{.Sensor}}</a></td>
<td>{{.Spark}}</td>
<td>{{printf "%.2f" .Latest}}</td>
<td>{{len .Anomalies}}</td>
</tr>{{end}}
</table>
</body></html>{{end}}

{{define "sensor"}}{{template "head" .}}
<h1>Machine {{.Detail.Unit}} &mdash; sensor {{.Detail.Sensor}}</h1>
<p><a href="/machine/{{.Detail.Unit}}?from={{.From}}&amp;to={{.To}}">back to machine {{.Detail.Unit}}</a></p>
<div class="chart">{{.Chart}}</div>
<h2>Anomalies</h2>
<table id="anomalies">
<tr><th>Time</th><th>Severity (z)</th></tr>
{{range .Detail.Anomalies}}<tr class="anomaly-row"><td>{{.Timestamp}}</td><td>{{printf "%.2f" .Value}}</td></tr>{{end}}
</table>
</body></html>{{end}}
`

// render executes one named template.
func (s *Server) render(w http.ResponseWriter, name string, data any) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	if err := s.tmpl.ExecuteTemplate(w, name, data); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
