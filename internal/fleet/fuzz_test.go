package fleet

import (
	"testing"

	"lite/internal/serve"
	"lite/pkg/api"
)

// FuzzRoutingKey feeds arbitrary request bodies to the router's placement
// read. It must never panic and must place one body on one key every
// time; and a body the shards would accept as a /v1/recommend request
// with a known cluster and a size within serve.MaxSizeMB must land on
// exactly the key the serving layer caches it under, so routing keeps each
// shard's cache hot on its slice.
func FuzzRoutingKey(f *testing.F) {
	for _, seed := range []string{
		`{"app":"WordCount","size_mb":512,"cluster":"C"}`,
		`{"app":"wordcount","cluster":"c"}`,
		`{"app":"NeverSeen","size_mb":-3,"cluster":"B","features":{"ops":["map"]}}`,
		`{"APP":"KMeans","Size_MB":1e308,"cluster":"A"}`,
		`{"app":"WordCount","cluster":"Z"}`,
		`{"app":"WordCount","cluster":"C","config":{"spark.executor.cores":2}}`,
		`{"app":"WordCount","cluster":"C"} {}`,
		`{"app":1}`,
		`[]`,
		``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		key := routingKey(body)
		if again := routingKey(body); again != key {
			t.Fatalf("routingKey(%q) = %q, then %q", body, key, again)
		}
		var req api.RecommendRequest
		if api.DecodeStrict(body, &req) != nil {
			return
		}
		if _, ok := serve.ClusterByName(req.Cluster); !ok || req.SizeMB > serve.MaxSizeMB {
			return
		}
		want, err := serve.RoutingKey(req.App, req.SizeMB, req.Cluster)
		if err != nil {
			t.Fatalf("serve.RoutingKey(%q, %g, %q): %v", req.App, req.SizeMB, req.Cluster, err)
		}
		if key != want {
			t.Fatalf("routingKey(%q) = %q, want serve.RoutingKey's %q", body, key, want)
		}
	})
}
