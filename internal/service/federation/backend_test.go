package federation

import (
	"context"
	"errors"
	"net/http/httptest"
	"testing"

	"peel/internal/service"
	"peel/internal/steiner"
	"peel/internal/topology"
)

// errAPI answers every tree computation with one fixed error; nothing
// else of the API is served.
type errAPI struct {
	service.API
	err error
}

func (a errAPI) TreeFor(context.Context, []topology.NodeID) (service.TreeInfo, error) {
	return service.TreeInfo{}, a.err
}

// TestHTTPBackendReadsDaemonErrorsBack round-trips each sentinel a
// replica answers with through the daemon's status table and back: the
// error the HTTP backend returns must be the one the replica raised, so
// the router's retry and failover classification holds across processes.
func TestHTTPBackendReadsDaemonErrorsBack(t *testing.T) {
	for _, want := range []error{
		service.ErrOverloaded,
		service.ErrDraining,
		context.DeadlineExceeded,
		steiner.ErrUnreachable,
		service.ErrNoSuchGroup,
	} {
		srv := httptest.NewServer(service.NewDaemonFor(errAPI{err: want}, service.DaemonConfig{}).Handler())
		b := NewHTTPBackend("r0", srv.URL, 8)
		_, err := b.TreeFor(context.Background(), "key", 0, []topology.NodeID{1, 2})
		srv.Close()
		if !errors.Is(err, want) {
			t.Errorf("replica raised %v; backend returned %v", want, err)
		}
	}
}
