#include "nn/model.h"

#include <cassert>
#include <string>

#include "obs/metrics.h"
#include "util/logging.h"

namespace fedgpo {
namespace nn {

namespace {

const char *
kindLabel(LayerKind kind)
{
    switch (kind) {
      case LayerKind::Conv:
        return "conv";
      case LayerKind::Dense:
        return "dense";
      case LayerKind::Recurrent:
        return "recurrent";
      case LayerKind::Activation:
        return "act";
      case LayerKind::Pool:
        return "pool";
      case LayerKind::Reshape:
        return "reshape";
    }
    return "layer";
}

std::string
layerSpanName(const char *phase, std::size_t idx, LayerKind kind)
{
    std::string name = "model.";
    name += phase;
    name += '.';
    name += idx < 10 ? "0" : "";
    name += std::to_string(idx);
    name += '_';
    name += kindLabel(kind);
    return name;
}

} // namespace

Model &
Model::add(std::unique_ptr<Layer> layer)
{
    // Nothing reads the first layer's input gradient.
    layer->setInputGrad(!layers_.empty());
    for (Tensor *p : layer->params())
        params_.push_back(p);
    for (Tensor *g : layer->grads())
        grads_.push_back(g);
    layers_.push_back(std::move(layer));
    spans_ready_ = false;
    return *this;
}

void
Model::ensureSpans()
{
    spans_ready_ = true;
    fwd_spans_.assign(layers_.size(), nullptr);
    bwd_spans_.assign(layers_.size(), nullptr);
    if (!obs::enabled(obs::Level::Profile))
        return;
    for (std::size_t i = 0; i < layers_.size(); ++i) {
        const LayerKind kind = layers_[i]->kind();
        fwd_spans_[i] = obs::spanIf(obs::Level::Profile,
                                    layerSpanName("forward", i, kind));
        bwd_spans_[i] = obs::spanIf(obs::Level::Profile,
                                    layerSpanName("backward", i, kind));
    }
}

const Tensor &
Model::forward(const Tensor &input, bool train)
{
    assert(!layers_.empty());
    if (!spans_ready_)
        ensureSpans();
    const Tensor *x = &input;
    for (std::size_t i = 0; i < layers_.size(); ++i) {
        obs::ScopedTimer timer(fwd_spans_[i]);
        x = &layers_[i]->forward(*x, train);
    }
    return *x;
}

double
Model::trainStep(const Tensor &input, const std::vector<int> &labels)
{
    const Tensor &logits = forward(input, /*train=*/true);
    double loss_value = loss_.forward(logits, labels);
    const Tensor *g = &loss_.backward();
    for (std::size_t i = layers_.size(); i-- > 0;) {
        obs::ScopedTimer timer(bwd_spans_[i]);
        g = &layers_[i]->backward(*g);
    }
    return loss_value;
}

Model::EvalResult
Model::evaluate(const Tensor &input, const std::vector<int> &labels)
{
    const Tensor &logits = forward(input, /*train=*/false);
    EvalResult result;
    result.loss = loss_.forward(logits, labels);
    result.correct = loss_.correct();
    result.accuracy = labels.empty()
                          ? 0.0
                          : static_cast<double>(result.correct) /
                                static_cast<double>(labels.size());
    return result;
}

void
Model::zeroGrad()
{
    for (Tensor *g : grads_)
        g->zero();
}

std::size_t
Model::paramCount()
{
    std::size_t n = 0;
    for (Tensor *p : params())
        n += p->numel();
    return n;
}

std::size_t
Model::paramBytes()
{
    return paramCount() * sizeof(float);
}

std::vector<float>
Model::saveParams()
{
    std::vector<float> flat;
    flat.reserve(paramCount());
    for (Tensor *p : params())
        flat.insert(flat.end(), p->data(), p->data() + p->numel());
    return flat;
}

void
Model::loadParams(const std::vector<float> &flat)
{
    std::size_t offset = 0;
    for (Tensor *p : params()) {
        if (offset + p->numel() > flat.size())
            util::fatal("Model::loadParams: flat vector too short");
        std::copy(flat.begin() + static_cast<long>(offset),
                  flat.begin() + static_cast<long>(offset + p->numel()),
                  p->data());
        offset += p->numel();
    }
    if (offset != flat.size())
        util::fatal("Model::loadParams: flat vector too long");
}

std::uint64_t
Model::forwardFlopsPerSample() const
{
    std::uint64_t total = 0;
    for (const auto &layer : layers_)
        total += layer->flopsPerSample();
    return total;
}

std::uint64_t
Model::trainFlopsPerSample() const
{
    return 3ULL * forwardFlopsPerSample();
}

LayerCensus
Model::census() const
{
    LayerCensus census;
    for (const auto &layer : layers_) {
        switch (layer->kind()) {
          case LayerKind::Conv:
            ++census.conv;
            break;
          case LayerKind::Dense:
            ++census.dense;
            break;
          case LayerKind::Recurrent:
            ++census.recurrent;
            break;
          default:
            break;
        }
    }
    return census;
}

} // namespace nn
} // namespace fedgpo
