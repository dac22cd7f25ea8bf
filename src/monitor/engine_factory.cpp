// Engine selection for CreatePropertyMonitor (see property_monitor.hpp).

#include "monitor/compiled/bytecode.hpp"
#include "monitor/compiled/engine.hpp"
#include "monitor/engine.hpp"
#include "monitor/property_monitor.hpp"

namespace swmon {

const char* EngineKindName(EngineKind kind) {
  switch (kind) {
    case EngineKind::kInterpreted:
      return "interpreted";
    case EngineKind::kCompiled:
      return "compiled";
  }
  return "unknown";
}

EngineKind ResolveEngineKind(const Property& property,
                             const MonitorConfig& config) {
  if (config.engine == EngineKind::kCompiled &&
      config.provenance != ProvenanceLevel::kFull &&
      compiled::Lowerable(property))
    return EngineKind::kCompiled;
  return EngineKind::kInterpreted;
}

std::unique_ptr<PropertyMonitor> CreatePropertyMonitor(Property property,
                                                       MonitorConfig config) {
  if (ResolveEngineKind(property, config) == EngineKind::kCompiled)
    return std::make_unique<CompiledEngine>(std::move(property), config);
  return std::make_unique<MonitorEngine>(std::move(property), config);
}

}  // namespace swmon
