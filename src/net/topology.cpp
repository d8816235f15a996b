#include "net/topology.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace mdo::net {

ClusterId Topology::add_cluster(std::string name) {
  cluster_names_.push_back(std::move(name));
  return static_cast<ClusterId>(cluster_names_.size() - 1);
}

NodeId Topology::add_node(ClusterId cluster) {
  MDO_CHECK(cluster >= 0 &&
            static_cast<std::size_t>(cluster) < cluster_names_.size());
  node_cluster_.push_back(cluster);
  return static_cast<NodeId>(node_cluster_.size() - 1);
}

ClusterId Topology::cluster_of(NodeId node) const {
  MDO_CHECK(node >= 0 && static_cast<std::size_t>(node) < node_cluster_.size());
  return node_cluster_[static_cast<std::size_t>(node)];
}

const std::string& Topology::cluster_name(ClusterId cluster) const {
  MDO_CHECK(cluster >= 0 &&
            static_cast<std::size_t>(cluster) < cluster_names_.size());
  return cluster_names_[static_cast<std::size_t>(cluster)];
}

std::size_t Topology::cluster_size(ClusterId cluster) const {
  std::size_t n = 0;
  for (ClusterId c : node_cluster_)
    if (c == cluster) ++n;
  return n;
}

std::vector<NodeId> Topology::nodes_in(ClusterId cluster) const {
  std::vector<NodeId> out;
  for (std::size_t i = 0; i < node_cluster_.size(); ++i)
    if (node_cluster_[i] == cluster) out.push_back(static_cast<NodeId>(i));
  return out;
}

void Topology::set_wan_link(ClusterId src, ClusterId dst, LinkParams link) {
  MDO_CHECK(src >= 0 && static_cast<std::size_t>(src) < cluster_names_.size());
  MDO_CHECK(dst >= 0 && static_cast<std::size_t>(dst) < cluster_names_.size());
  MDO_CHECK_MSG(src != dst, "WAN links connect distinct clusters");
  MDO_CHECK(link.latency >= 0 && link.bytes_per_us > 0.0);
  links_[{src, dst}] = link;
}

const LinkParams* Topology::wan_link(ClusterId src, ClusterId dst) const {
  auto it = links_.find({src, dst});
  return it == links_.end() ? nullptr : &it->second;
}

sim::TimeNs Topology::max_wan_latency(const LinkParams& fallback) const {
  std::vector<bool> populated(cluster_names_.size(), false);
  for (ClusterId c : node_cluster_) populated[static_cast<std::size_t>(c)] = true;
  sim::TimeNs worst = 0;
  bool any = false;
  const auto n = static_cast<ClusterId>(cluster_names_.size());
  for (ClusterId src = 0; src < n; ++src) {
    if (!populated[static_cast<std::size_t>(src)]) continue;
    for (ClusterId dst = 0; dst < n; ++dst) {
      if (dst == src || !populated[static_cast<std::size_t>(dst)]) continue;
      any = true;
      worst = std::max(worst, wan_link_or(src, dst, fallback).latency);
    }
  }
  return any ? worst : 0;
}

Topology Topology::two_cluster(std::size_t num_nodes) {
  Topology topo;
  ClusterId a = topo.add_cluster("siteA");
  if (num_nodes == 1) {
    topo.add_node(a);
    return topo;
  }
  MDO_CHECK_MSG(num_nodes % 2 == 0, "two-cluster layout needs an even node count");
  ClusterId b = topo.add_cluster("siteB");
  for (std::size_t i = 0; i < num_nodes / 2; ++i) topo.add_node(a);
  for (std::size_t i = 0; i < num_nodes / 2; ++i) topo.add_node(b);
  return topo;
}

Topology Topology::single_cluster(std::size_t num_nodes) {
  Topology topo;
  ClusterId a = topo.add_cluster("site");
  for (std::size_t i = 0; i < num_nodes; ++i) topo.add_node(a);
  return topo;
}

Topology Topology::n_cluster(std::size_t num_nodes, std::size_t num_clusters) {
  MDO_CHECK(num_clusters > 0);
  MDO_CHECK_MSG(num_nodes >= num_clusters,
                "every cluster needs at least one node");
  Topology topo;
  for (std::size_t c = 0; c < num_clusters; ++c) {
    // "siteA", ..., "siteZ", then "site26", "site27", ...
    std::string name = c < 26 ? std::string("site") + static_cast<char>('A' + c)
                              : "site" + std::to_string(c);
    topo.add_cluster(std::move(name));
  }
  const std::size_t base = num_nodes / num_clusters;
  const std::size_t extra = num_nodes % num_clusters;
  for (std::size_t c = 0; c < num_clusters; ++c) {
    const std::size_t size = base + (c < extra ? 1 : 0);
    for (std::size_t i = 0; i < size; ++i)
      topo.add_node(static_cast<ClusterId>(c));
  }
  return topo;
}

obs::Json Topology::to_json() const {
  obs::Json doc = obs::Json::object();
  obs::Json clusters = obs::Json::array();
  for (std::size_t c = 0; c < cluster_names_.size(); ++c) {
    obs::Json cluster = obs::Json::object();
    cluster.set("name", cluster_names_[c]);
    cluster.set("nodes",
                static_cast<std::uint64_t>(cluster_size(static_cast<ClusterId>(c))));
    clusters.push(std::move(cluster));
  }
  doc.set("clusters", std::move(clusters));
  obs::Json nodes = obs::Json::array();
  for (ClusterId c : node_cluster_) nodes.push(static_cast<std::int64_t>(c));
  doc.set("node_cluster", std::move(nodes));
  obs::Json links = obs::Json::array();
  for (const auto& [pair, params] : links_) {  // map order: deterministic
    obs::Json link = obs::Json::object();
    link.set("src", static_cast<std::int64_t>(pair.first));
    link.set("dst", static_cast<std::int64_t>(pair.second));
    link.set("latency_ns", static_cast<std::int64_t>(params.latency));
    link.set("bytes_per_us", params.bytes_per_us);
    links.push(std::move(link));
  }
  doc.set("wan_links", std::move(links));
  return doc;
}

}  // namespace mdo::net
