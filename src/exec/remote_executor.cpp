#include "exec/remote_executor.h"

#include "util/timer.h"

namespace clktune::exec {

Outcome RemoteExecutor::execute(const Request& request, Observer* observer) {
  request.validate();
  const util::Stopwatch timer;
  const serve::Client client(host_, port_, timeouts_);
  const serve::Selection selection = serve::Selection::of(request);
  serve::ResultAssembler cells(request.expansion_size(), selection, observer);

  if (observer != nullptr)
    observer->on_begin(request.expansion_size(), request.shard_cells());

  serve::SubmitOutcome stream;
  try {
    const serve::EventCallback hook = cells.stream(client.endpoint());
    stream = request.kind == Request::Kind::scenario
                 ? client.run(request.document(), hook)
                 : client.sweep(request.document(), selection, hook);
  } catch (const CancelledError&) {
    throw;
  } catch (const ExecError&) {
    throw;
  } catch (const util::JsonError&) {
    throw;
  } catch (const std::runtime_error& e) {
    throw ExecError(name() + ": " + e.what());
  }
  if (!stream.ok())
    throw ExecError(name() + ": " + stream.error_message("connection closed"));
  return cells.outcome(request.kind, request.campaign.name, name(),
                       timer.seconds());
}

}  // namespace clktune::exec
